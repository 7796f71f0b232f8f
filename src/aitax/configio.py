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

The format is read off ``economy.py``'s config dataclasses at import: each
field is a key, in declaration order, and a field without a default is a
required key.  The dict form of a config (``config_to_dict``) walks the
same keys.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable, get_args, get_type_hints

from .economy import AgentKind, AgentTypeParams, EconomyConfig, SECTION_PREFIXES
from .errors import ConfigError

# dotted key -> (EconomyConfig section, None for a top-level field; field
# name; value type) in declaration order, the order every writer uses; the
# required keys; each section's constructor.  ``_register`` fills all three.
_SCHEMA: dict[str, tuple[str | None, str, type]] = {}
_REQUIRED: list[str] = []
_SECTIONS: dict[str, Callable] = {}


def _value_type(hint) -> type:
    """The type a field's text parses to: ``X`` for a field declared ``X | None``."""
    args = [a for a in get_args(hint) if a is not type(None)]
    return args[0] if args else hint


def _register(section: str | None, cls: type) -> None:
    """Each field of ``cls`` as a key of ``section``; a field that is itself
    a dataclass is a section, registered in turn.  An agent section's
    ``kind`` is no key but its slot's name, and the horizon's key is ``T``."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        typ = _value_type(hints[f.name])
        if is_dataclass(typ):
            _SECTIONS[f.name] = (partial(typ, kind=AgentKind(f.name))
                                 if typ is AgentTypeParams else typ)
            _register(f.name, typ)
        elif f.name != "kind":
            key = SECTION_PREFIXES[section] + ("T" if f.name == "horizon" else f.name)
            _SCHEMA[key] = (section, f.name, typ)
            if f.default is MISSING:
                _REQUIRED.append(key)


_register(None, EconomyConfig)


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
