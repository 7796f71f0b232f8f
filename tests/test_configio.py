from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aitax import (
    cobb_douglas_economy,
    regime_a_economy,
    regime_b_economy,
    symmetric_economy,
    threshold_economy,
)
from aitax import configio
from aitax.configio import (
    config_from_dict,
    config_to_dict,
    load_config,
    parse_config,
)
from aitax.economy import (
    AgentKind,
    AgentTypeParams,
    PreferenceParams,
    SolveMode,
    TechForm,
    TechnologyParams,
    UtilityForm,
)
from aitax.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the preset each bundled config writes out; regime_a_t20 is regime_a on a path
PRESETS = {
    "symmetric": symmetric_economy, "regime_a": regime_a_economy,
    "regime_b": regime_b_economy, "threshold": threshold_economy,
    "cobb_douglas": cobb_douglas_economy, "regime_a_t20": regime_a_economy,
}

MINIMAL = """
# two identical types, default technology
agents.cognitive.pi = 0.5
agents.cognitive.z  = 1.0   # trailing comment
agents.manual.pi    = 0.5
agents.manual.z     = 1.0
prefs.beta          = 0.96
tech.form           = nest_complements
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.cognitive.pi == 0.5
    assert cfg.manual.z == 1.0
    assert cfg.prefs.beta == 0.96
    assert cfg.tech.form.value == "nest_complements"
    assert cfg.mode is SolveMode.STEADY_STATE


def test_horizon_key_is_T():
    cfg = parse_config(MINIMAL + "mode = finite_horizon\nT = 12\nk0 = 0.5\nai0 = 0.5\n")
    assert cfg.mode is SolveMode.FINITE_HORIZON
    assert cfg.horizon == 12
    assert cfg.k0 == 0.5


def test_unknown_key_points_at_the_line():
    with pytest.raises(ConfigError, match=r"econ\.cfg:9: unknown key 'tech\.frm'"):
        parse_config(MINIMAL + "tech.frm = nest_complements\n", source="econ.cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'prefs.beta'"):
        parse_config(MINIMAL + "prefs.beta = 0.9\n")


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match="missing required keys: .*prefs.beta.*tech.form"):
        parse_config("agents.cognitive.pi = 0.5\nagents.cognitive.z = 1\n"
                     "agents.manual.pi = 0.5\nagents.manual.z = 1\n")


def test_bad_enum_lists_choices():
    bad = MINIMAL.replace("nest_complements", "leontief")
    with pytest.raises(ConfigError, match=r"one of \[nest_complements, nest_substitute_cognitive, cobb_douglas\]"):
        parse_config(bad)


def test_bad_number():
    with pytest.raises(ConfigError, match="expected a number, got 'fast'"):
        parse_config(MINIMAL + "tech.a_ai = fast\n")


def test_bad_integer():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(MINIMAL + "T = 7.5\n")


def test_line_without_assignment():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("just some words\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_returns_raw_bytes(tmp_path):
    path = tmp_path / "econ.cfg"
    path.write_text(MINIMAL)
    cfg, raw = load_config(path)
    assert raw == MINIMAL.encode()
    assert cfg == parse_config(MINIMAL)


# the file format: every key in the order every writer uses, with its
# section, field and value type
FORMAT = [
    ("agents.cognitive.pi", "cognitive", "pi", float),
    ("agents.cognitive.z", "cognitive", "z", float),
    ("agents.manual.pi", "manual", "pi", float),
    ("agents.manual.z", "manual", "z", float),
    ("prefs.beta", "prefs", "beta", float),
    ("prefs.u_form", "prefs", "u_form", UtilityForm),
    ("prefs.gamma", "prefs", "gamma", float),
    ("prefs.psi", "prefs", "psi", float),
    ("prefs.phi", "prefs", "phi", float),
    ("tech.form", "tech", "form", TechForm),
    ("tech.a", "tech", "a", float),
    ("tech.mu_top", "tech", "mu_top", float),
    ("tech.lambda_c", "tech", "lambda_c", float),
    ("tech.theta_m", "tech", "theta_m", float),
    ("tech.sigma_top", "tech", "sigma_top", float),
    ("tech.rho_c", "tech", "rho_c", float),
    ("tech.rho_m", "tech", "rho_m", float),
    ("tech.a_ai", "tech", "a_ai", float),
    ("tech.delta_k", "tech", "delta_k", float),
    ("tech.delta_ai", "tech", "delta_ai", float),
    ("g", None, "g", float),
    ("k0", None, "k0", float),
    ("ai0", None, "ai0", float),
    ("mode", None, "mode", SolveMode),
    ("T", None, "horizon", int),
]


def test_the_format_read_off_the_dataclasses_is_pinned():
    """The keys are read off the config dataclasses, so a reordered or
    retyped field would change the file format and the ``config`` section
    of every payload: both are pinned here."""
    assert [(key, *entry) for key, entry in configio._SCHEMA.items()] == FORMAT
    payload_keys = [key for key, _ in configio._leaves(config_to_dict(symmetric_economy()))]
    assert payload_keys == [key for key, *_ in FORMAT]
    assert configio._REQUIRED == [
        "agents.cognitive.pi", "agents.cognitive.z", "agents.manual.pi",
        "agents.manual.z", "prefs.beta", "tech.form",
    ]
    sections = configio._SECTIONS
    assert list(sections) == ["cognitive", "manual", "prefs", "tech"]
    for slot in ("cognitive", "manual"):
        assert sections[slot].func is AgentTypeParams
        assert sections[slot].keywords == {"kind": AgentKind(slot)}
    assert sections["prefs"] is PreferenceParams
    assert sections["tech"] is TechnologyParams


def test_dict_round_trip():
    cfg = threshold_economy()
    d = config_to_dict(cfg)
    assert d["tech"]["form"] == "nest_substitute_cognitive"
    assert config_from_dict(d) == cfg


def test_config_from_dict_rejects_garbage():
    d = config_to_dict(symmetric_economy())
    del d["prefs"]
    with pytest.raises(ConfigError, match="malformed config dict"):
        config_from_dict(d)


@pytest.mark.parametrize("key", ["tech.a", "prefs.gamma", "T"])
def test_config_from_dict_requires_every_leaf(key):
    """The dict form is written in full, so no leaf falls back to a default."""
    d = config_to_dict(symmetric_economy())
    *sections, leaf = key.split(".")
    node = d
    for section in sections:
        node = node[section]
    del node[leaf]
    with pytest.raises(ConfigError, match=f"malformed config dict: .*{key}"):
        config_from_dict(d)


def test_config_from_dict_rejects_unknown_leaf():
    d = config_to_dict(symmetric_economy())
    d["tech"]["alpha"] = 0.3
    with pytest.raises(ConfigError, match="malformed config dict: .*tech.alpha"):
        config_from_dict(d)


@given(
    pi=st.floats(0.05, 0.95),
    z=st.floats(0.1, 10.0),
    beta=st.floats(0.5, 0.999),
    a_ai=st.floats(1e-3, 1e3),
)
def test_numeric_fields_survive_the_text_format(pi, z, beta, a_ai):
    # the dict form's values are checked as their text, and str() of a float
    # parses back to the identical float, so every numeric field survives
    # bit for bit
    base = symmetric_economy()
    cfg = replace(
        base,
        cognitive=replace(base.cognitive, pi=pi, z=z),
        manual=replace(base.manual, pi=1.0 - pi),
        prefs=replace(base.prefs, beta=beta),
        tech=replace(base.tech, a_ai=a_ai),
    )
    roundtrip = config_from_dict(config_to_dict(cfg))
    assert roundtrip == cfg
    assert roundtrip.prefs.beta == cfg.prefs.beta


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_bundled_config_is_its_preset(path):
    """Each economy is written twice, as a preset and as a config file."""
    preset = PRESETS[path.stem]()
    config, _ = load_config(path)
    if path.stem == "regime_a_t20":
        config = replace(config, mode=preset.mode, horizon=preset.horizon,
                         k0=preset.k0, ai0=preset.ai0)
    assert config == preset
