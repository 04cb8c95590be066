"""Experiment configuration: the settable values, their INI text, overrides.

Every settable value is a field of one of the section classes below; the
physics modules (world, channel) take plain numbers.  from_ini reads INI
text one line at a time, and every line stands alone.  A line is blank,
a comment (starting with "#" or ";"), a [section] header, or
"key = value" ("key: value"); a "#" or ";" after whitespace ends a
line's text.  Section and key names are case-blind; there is no
continuation line and no % interpolation.  Each value is applied as it
is read, so every error names its [section] key and its line, or its
override.  The resolved configuration is a plain INI text with every
field spelled out; re-running from a resolved snapshot reproduces a run
byte for byte.
"""

from __future__ import annotations

import dataclasses
import io
import math
import re
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    pass


SPEED_MAX = 1000.0  # m/s, both speeds' ceiling: world.DIST_MAX in one slot


@dataclass(frozen=True)
class WorldConfig:
    """The controlled UAVs' speed and the episode length.

    The per-slot yaw/pitch change is bounded by the action set
    (``env.ANGLE_CHOICES``); world.PITCH_MIN/PITCH_MAX clamp the absolute
    pitch of every heading.
    """

    speed: float = 5.0                 # m/s, all controlled UAVs
    slots_per_episode: int = 25

    def __post_init__(self):
        if self.speed <= 0:
            raise ConfigError("speed must be positive")
        if self.speed > SPEED_MAX:
            raise ConfigError(f"speed must be at most {SPEED_MAX!r}")
        if self.slots_per_episode < 1:
            raise ConfigError("slots_per_episode must be at least 1")


@dataclass(frozen=True)
class TargetTrajectorySpec:
    speed: float = 5.0            # m/s
    uncertainty: float = 0.0      # total probability of a 90-degree turn per slot

    def __post_init__(self):
        if not 0.0 <= self.uncertainty <= 1.0:
            raise ConfigError("uncertainty must lie in [0, 1]")
        if self.speed < 0:
            raise ConfigError("speed must be nonnegative")
        if self.speed > SPEED_MAX:
            raise ConfigError(f"speed must be at most {SPEED_MAX!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    latency_budget: float = 0.030        # s, per-uplink delivery deadline


@dataclass(frozen=True)
class ChannelParams:
    """The radio's settable sizes; every other radio value is one of the
    channel module's constants."""

    n_ports: int = 32
    n_paths: int = 5                  # uplink multipath count

    def __post_init__(self):
        if self.n_ports < 2:
            raise ConfigError("n_ports must be at least 2")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1")


@dataclass(frozen=True)
class MarlConfig:
    """The networks' shapes; the training recipe is marl's constants."""
    gru_hidden: int = 64
    mlp_hidden: int = 64
    embed_width: int = 32
    attn_units: int = 4
    attn_width: int = 16
    omega_width: int = 32
    history_window: int = 8
    mixing_hidden: int = 32

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 186
    episodes_per_epoch: int = 2
    seed: int = 0
    scheme: str = "ar_marl"
    eval_episodes: int = 30

    def __post_init__(self):
        for name in ("epochs", "episodes_per_epoch", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be at least 0")


SCHEME_TRAITS = {
    # (trains, port_heads, recurrent, coordinator, mixer_mode)
    "ar_marl":        (True,  True,  True,  True,  "hyper"),
    "vd_marl":        (True,  True,  True,  False, "sum"),
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
    marl: MarlConfig = field(default_factory=MarlConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        if self.run.scheme not in SCHEME_TRAITS:
            raise ConfigError(f"unknown scheme {self.run.scheme!r}; "
                              f"choose from {', '.join(SCHEME_TRAITS)}")


_SECTIONS = tuple(f.name for f in fields(ExperimentConfig))


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(text: str, default):
    text = text.strip()
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        return value
    return text


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def to_ini(cfg: ExperimentConfig) -> str:
    """Render every field of every section; reparsing reproduces cfg."""
    out = io.StringIO()
    for sect_field in fields(cfg):
        sect = getattr(cfg, sect_field.name)
        out.write(f"[{sect_field.name}]\n")
        for f in fields(sect):
            out.write(f"{f.name} = {_format_value(getattr(sect, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def _name(text: str) -> str:
    """A section or key name as every reader compares it: case-blind."""
    return text.strip().lower()


def _section(name: str, where: str) -> str:
    """The section that name selects; where is its origin."""
    section = _name(name)
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section [{name.strip()}] ({where})")
    return section


def _apply(cfg: ExperimentConfig, section: str, key: str, raw: str,
           where: str) -> ExperimentConfig:
    """cfg with [section] key set from the raw text of one line or
    override, where; every error names the key and where."""
    sect = getattr(cfg, section)
    if key not in {f.name for f in fields(sect)}:
        raise ConfigError(f"unknown key {key!r} in section [{section}] ({where})")
    try:
        value = _parse_value(raw, getattr(sect, key))
        return dataclasses.replace(
            cfg, **{section: dataclasses.replace(sect, **{key: value})})
    except ValueError as exc:  # the text, or a section's own check
        raise ConfigError(f"[{section}] {key} ({where}): {exc}") from None


def from_ini(text: str) -> ExperimentConfig:
    """The default config with every key line of INI text applied."""
    cfg, section, seen = default_config(), None, set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        where = f"line {lineno}"
        body = re.split(r"\s[#;]", line, maxsplit=1)[0].strip()
        if not body or body[0] in "#;":
            continue
        if body[0] == "[" and body[-1] == "]":
            section = _section(body[1:-1], where)
            if (section, None) in seen:
                raise ConfigError(f"repeated section [{section}] ({where})")
            seen.add((section, None))
            continue
        item = re.fullmatch(r"([^=:]*)[=:](.*)", body)
        if item is None or not item[1].strip():
            raise ConfigError(f"not a [section], key = value or comment: "
                              f"{line.strip()!r} ({where})")
        key, raw = _name(item[1]), item[2]
        if section is None:
            raise ConfigError(f"key {key!r} before any section ({where})")
        if (section, key) in seen:
            raise ConfigError(f"repeated key {key!r} in section [{section}] "
                              f"({where})")
        seen.add((section, key))
        cfg = _apply(cfg, section, key, raw, where)
    return cfg


def apply_overrides(base: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply section.key=value strings to base; later ones win."""
    for item in overrides:
        dotted, equals, raw = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not equals or not dot:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        where = f"override {item!r}"
        base = _apply(base, _section(section, where), _name(key), raw, where)
    return base


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read an INI file (optional) and apply section.key=value overrides;
    the file's errors name it."""
    cfg = default_config()
    if path is not None:
        # utf-8-sig drops the byte-order mark Windows editors write
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                cfg = from_ini(fh.read())
            except ValueError as exc:  # a config error, or text not UTF-8
                raise ConfigError(f"{path}: {exc}") from None
    return apply_overrides(cfg, overrides or [])
