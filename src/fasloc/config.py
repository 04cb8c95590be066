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
import re
from dataclasses import dataclass, field, fields

from .channel import ChannelParams
from .world import TargetTrajectorySpec, WorldConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    latency_budget: float = 0.030        # s, per-uplink delivery deadline


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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_value(text: str, default, section: str, key: str):
    text = text.strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return _finite(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _line_note(text: str, section: str, key: str | None = None) -> str:
    """" (line N)" of [section]'s header in text, or of key's line in that
    section, read as configparser reads them: inline comments dropped, a
    header up to its last "]", section names compared case-blind, keys
    lowercased and ended by the first "=" or ":"; "" when there is no
    such line."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"\s[#;]", line, maxsplit=1)[0].strip()
        if stripped.startswith("[") and "]" in stripped:
            current = stripped[1:stripped.rindex("]")].strip().lower()
            if key is None and current == section:
                return f" (line {lineno})"
        elif key is not None and current == section:
            if re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
                return f" (line {lineno})"
    return ""


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


def _apply_items(base: ExperimentConfig, items, origin_text: str | None = None):
    """items: iterable of (section, key, raw value string)."""
    updates: dict[str, dict] = {}
    for section, key, raw in items:
        section = section.strip().lower()
        key = key.strip()
        if section not in _SECTIONS:
            # from_ini rejects unknown sections first, so this is an override
            raise ConfigError(f"unknown section [{section}] (key {key!r})")
        sect_obj = getattr(base, section)
        sect_fields = {f.name: f for f in fields(type(sect_obj))}
        if key not in sect_fields:
            loc = _line_note(origin_text, section, key) if origin_text else ""
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


def from_ini(text: str) -> ExperimentConfig:
    # no header can name the empty default section, so [DEFAULT] is an
    # ordinary, unknown section rather than defaults for every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    for section in parser.sections():
        name = section.strip().lower()
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]"
                              f"{_line_note(text, name)}")
    items = [(section, key, parser.get(section, key))
             for section in parser.sections()
             for key in parser[section]]
    return _apply_items(default_config(), items, origin_text=text)


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
