"""Experiment configuration: typed sections, INI round-trip, overrides.

The resolved configuration is a plain INI text with every field spelled
out; re-running from a resolved snapshot reproduces a run byte for byte.
Unknown sections or keys are rejected with the offending line number.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass, field, fields

from .channel import ChannelParams
from .world import TargetTrajectorySpec, TrajectoryMode, WorldConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PositioningConfig:
    variance_scale: float = 1e-3   # multiplies 1/SNR into the range variance
    solver_tol: float = 1e-9
    solver_max_iter: int = 100
    min_usable: int = 3            # fixes need at least this many fresh ranges
    innovation_gate: float = 150.0  # m; fixes jumping further than this from
                                    # the running estimate are rejected, with
                                    # the gate widening after each rejection
                                    # so recovery stays possible; 0 disables


@dataclass(frozen=True)
class ScenarioConfig:
    active_start: tuple = (300.0, 300.0, 300.0)
    passive_starts: tuple = ((237.0, 890.0, 744.0),
                             (310.0, 743.0, 891.0),
                             (832.0, 497.0, 328.0),
                             (548.0, 647.0, 400.0))
    bs_position: tuple = (0.0, 0.0, 20.0)
    channel_coherence: str = "episode"   # "episode" or "slot" departure angles
    latency_budget: float = 0.030        # s, per-uplink delivery deadline
    initial_heading: str = "toward_target"  # or "level" (east, zero pitch)


@dataclass(frozen=True)
class MarlConfig:
    discount: float = 0.9
    delta: float = 0.5              # weight on nonnegative TD errors
    learning_rate: float = 0.05
    lr_final_fraction: float = 0.2  # linear decay floor as a share of the rate
    grad_clip: float = 5.0
    target_sync: int = 10           # updates between target-copy refreshes
    eps_start: float = 1.0
    eps_end: float = 0.05
    port_eps_floor: float = 0.2     # ports keep exploring after the anneal
    port_lr_multiplier: float = 5.0     # faster port-head updates; the port
                                        # pathway is decoupled, so this cannot
                                        # destabilize the value fit
    anneal_fraction: float = 0.6
    gru_hidden: int = 64
    mlp_hidden: int = 64
    embed_width: int = 32
    attn_units: int = 4
    attn_width: int = 16
    omega_width: int = 32
    history_window: int = 8
    mixing_hidden: int = 32
    monotone_mixing: bool = True
    mixing_weight_floor: float = 0.2  # monotone mixing clamps each |w1|
                                      # entry from below at floor /
                                      # mixing_hidden, so every agent keeps at
                                      # least this much mixing weight; the
                                      # gradient is zero where the clamp binds
    penalty_clip: float = 200.0     # training-side clamp of the raw penalty
    reward_scale: float = 100.0


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 186
    episodes_per_epoch: int = 2
    seed: int = 0
    scheme: str = "ar_marl"
    eval_episodes: int = 30


SCHEME_TRAITS = {
    # (trains, learned_ports, recurrent, coordinator, mixer_mode)
    "ar_marl":        (True,  True,  True,  True,  "hyper"),
    "vd_marl":        (True,  True,  True,  False, "sum"),
    "independent_q":  (True,  True,  True,  False, None),
    "no_fas":         (True,  False, True,  True,  "hyper"),
    "no_rnn":         (True,  True,  False, True,  "hyper"),
    "no_transformer": (True,  True,  True,  False, "hyper"),
    "random":         (False, False, False, False, None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    target: TargetTrajectorySpec = field(default_factory=TargetTrajectorySpec)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    positioning: PositioningConfig = field(default_factory=PositioningConfig)
    marl: MarlConfig = field(default_factory=MarlConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        if self.run.scheme not in SCHEME_TRAITS:
            raise ConfigError(f"unknown scheme {self.run.scheme!r}; "
                              f"choose from {', '.join(SCHEME_TRAITS)}")
        if self.scenario.channel_coherence not in ("episode", "slot"):
            raise ConfigError("channel_coherence must be 'episode' or 'slot'")
        if self.scenario.initial_heading not in ("toward_target", "level"):
            raise ConfigError("initial_heading must be 'toward_target' or 'level'")


_SECTIONS = {
    "world": WorldConfig,
    "target": TargetTrajectorySpec,
    "scenario": ScenarioConfig,
    "channel": ChannelParams,
    "positioning": PositioningConfig,
    "marl": MarlConfig,
    "run": RunConfig,
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, TrajectoryMode):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ", ".join(" ".join(repr(float(x)) for x in row) for row in value)
        return " ".join(repr(float(x)) for x in value)
    return str(value)


def _parse_value(text: str, default, section: str, key: str):
    text = text.strip()
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if isinstance(default, TrajectoryMode):
            return TrajectoryMode(text.lower())
        if isinstance(default, int) and not isinstance(default, bool):
            return int(text)
        if isinstance(default, float):
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("must be finite")
            return value
        if isinstance(default, tuple):
            if default and isinstance(default[0], tuple):
                rows = [row.strip() for row in text.split(",") if row.strip()]
                return tuple(tuple(float(x) for x in row.split()) for row in rows)
            return tuple(float(x) for x in text.split())
        return text
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _line_of(text: str, section: str, key: str) -> int:
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and "=" in stripped:
            if stripped.split("=", 1)[0].strip() == key:
                return lineno
    return 0


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def to_ini(cfg: ExperimentConfig) -> str:
    """Render every field of every section; reparsing reproduces cfg."""
    out = io.StringIO()
    for sect_name, sect_cls in _SECTIONS.items():
        sect = getattr(cfg, sect_name)
        out.write(f"[{sect_name}]\n")
        for f in fields(sect_cls):
            out.write(f"{f.name} = {_format_value(getattr(sect, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def _apply_items(base: ExperimentConfig, items, origin_text: str | None = None):
    """items: iterable of (section, key, raw value string)."""
    updates: dict[str, dict] = {}
    for section, key, raw in items:
        section = section.strip().lower()
        key = key.strip()
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        sect_obj = getattr(base, section)
        sect_fields = {f.name: f for f in fields(type(sect_obj))}
        if key not in sect_fields:
            loc = ""
            if origin_text:
                line = _line_of(origin_text, section, key)
                if line:
                    loc = f" (line {line})"
            raise ConfigError(f"unknown key {key!r} in section [{section}]{loc}")
        default = getattr(sect_obj, key)
        updates.setdefault(section, {})[key] = _parse_value(raw, default, section, key)

    try:
        replaced = {}
        for section, kv in updates.items():
            replaced[section] = dataclasses.replace(getattr(base, section), **kv)
        return dataclasses.replace(base, **replaced)
    except ConfigError:
        raise
    except ValueError as exc:
        # section dataclasses validate their own invariants on construction
        raise ConfigError(str(exc)) from None


def from_ini(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    base = base or default_config()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    items = [(section, key, parser.get(section, key))
             for section in parser.sections()
             for key in parser[section]]
    return _apply_items(base, items, origin_text=text)


def apply_overrides(base: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply section.key=value strings to base; later ones win."""
    items = []
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        items.append((section, key, raw))
    return _apply_items(base, items)


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read an INI file (optional) and apply section.key=value overrides."""
    cfg = default_config()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = from_ini(fh.read())
    return apply_overrides(cfg, overrides or [])
