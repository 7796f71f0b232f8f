"""Reading and writing economy configurations.

The canonical on-disk format is a flat text file of dotted keys mirroring
the config dataclasses::

    # desk instance
    agents.cognitive.pi = 0.5
    agents.cognitive.z  = 2.0
    prefs.beta          = 0.96
    tech.form           = nest_complements
    mode                = steady_state

``#`` starts a comment, blank lines are skipped, later sections may appear
in any order.  Unknown and duplicated keys are hard errors: a silently
dropped typo in an economics parameter would change the economy being
solved.  Values are parsed by the declared type of the target field;
enums accept their string values.
"""

from __future__ import annotations

import enum
from functools import partial
from pathlib import Path

from .economy import (
    AgentKind,
    AgentTypeParams,
    EconomyConfig,
    PreferenceParams,
    SECTION_PREFIXES,
    SolveMode,
    TechForm,
    TechnologyParams,
    UtilityForm,
)
from .errors import ConfigError

# dotted key -> (EconomyConfig section, None for a top-level field; field
# name; value type).  Registration order is the order every writer uses.
_SCHEMA: dict[str, tuple[str | None, str, type]] = {}


def _register(section: str | None, fields: dict[str, type]) -> None:
    for name, kind in fields.items():
        _SCHEMA[f"{SECTION_PREFIXES[section]}{name}"] = (section, name, kind)


_register("cognitive", {"pi": float, "z": float})
_register("manual", {"pi": float, "z": float})
_register("prefs", {
    "beta": float,
    "u_form": UtilityForm,
    "gamma": float,
    "psi": float,
    "phi": float,
})
_register("tech", {
    "form": TechForm,
    "a": float,
    "mu_top": float,
    "lambda_c": float,
    "theta_m": float,
    "sigma_top": float,
    "rho_c": float,
    "rho_m": float,
    "a_ai": float,
    "delta_k": float,
    "delta_ai": float,
})
_register(None, {"g": float, "k0": float, "ai0": float, "mode": SolveMode})
_SCHEMA["T"] = (None, "horizon", int)

_REQUIRED = (
    "agents.cognitive.pi", "agents.cognitive.z",
    "agents.manual.pi", "agents.manual.z",
    "prefs.beta", "tech.form",
)

_SECTIONS = {
    "cognitive": partial(AgentTypeParams, kind=AgentKind.COGNITIVE),
    "manual": partial(AgentTypeParams, kind=AgentKind.MANUAL),
    "prefs": PreferenceParams,
    "tech": TechnologyParams,
}


def _parse(key: str, text: str):
    """The text of a value of ``key`` as its declared type; enums accept their string values."""
    kind = _SCHEMA[key][2]
    try:
        return kind(text)
    except ValueError:
        if kind is float:
            expected = "a number"
        elif kind is int:
            expected = "an integer"
        else:
            expected = f"one of [{', '.join(m.value for m in kind)}]"
        raise ConfigError(f"expected {expected}, got {text!r}") from None


def _assemble(values: dict[str, object]) -> EconomyConfig:
    """The config from parsed values by dotted key; absent keys keep their defaults."""
    sections: dict[str | None, dict[str, object]] = {name: {} for name in (*_SECTIONS, None)}
    for key, value in values.items():
        section, field, _ = _SCHEMA[key]
        sections[section][field] = value
    top = sections.pop(None)
    return EconomyConfig(
        **{name: make(**sections[name]) for name, make in _SECTIONS.items()}, **top
    )


def _value(config: EconomyConfig, key: str):
    """The config's value at ``key``, an enum as its string value."""
    section, field, _ = _SCHEMA[key]
    value = getattr(getattr(config, section) if section else config, field)
    return value.value if isinstance(value, enum.Enum) else value


def parse_config(text: str, source: str = "<string>") -> EconomyConfig:
    """Parse config text; see the module docstring for the format."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = _parse(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from None

    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")
    return _assemble(values)


def load_config(path: str | Path) -> tuple[EconomyConfig, bytes]:
    """Read and parse a config file; returns the config and the raw bytes.

    The raw bytes are what run manifests digest, so the hash identifies the
    file as written, comments and all.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p} is not utf-8 text: {exc}") from None
    return parse_config(text, source=str(p)), raw


def config_to_dict(config: EconomyConfig) -> dict:
    """Nested plain-dict form of a config, enums as their string values."""
    out: dict = {}
    for key in _SCHEMA:
        *path, name = key.split(".")
        node = out
        for part in path:
            node = node.setdefault(part, {})
        node[name] = _value(config, key)
    return out


def _leaves(data: dict, prefix: str = ""):
    for name, value in data.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", value


def config_from_dict(data: dict) -> EconomyConfig:
    """Inverse of config_to_dict; raises ConfigError on malformed input.

    Every key of the schema must be present, since the dict form is always
    written in full, and each value is checked as its text would be.
    """
    try:
        leaves = dict(_leaves(data))
        if leaves.keys() != _SCHEMA.keys():
            raise KeyError(sorted(leaves.keys() ^ _SCHEMA.keys()))
        return _assemble({
            key: None if value is None else _parse(key, str(value))
            for key, value in leaves.items()
        })
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config dict: {exc!r}") from None


def dump_config(config: EconomyConfig) -> str:
    """Render a config in the canonical file format (round-trips exactly)."""
    lines = []
    for key in _SCHEMA:
        value = _value(config, key)
        if value is not None:
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"
