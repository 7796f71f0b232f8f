import dataclasses
from pathlib import Path

import pytest

from aitax import symmetric_economy, validate_config
from aitax.configio import _SCHEMA, parse_config
from aitax.economy import SWEEP_PARAMS, with_param
from aitax.errors import DomainError


def test_symmetric_baseline_validates():
    report = validate_config(symmetric_economy())
    assert report.ok
    assert report.failures == ()


def test_population_shares_must_sum_to_one():
    cfg = symmetric_economy()
    cfg = dataclasses.replace(
        cfg,
        cognitive=dataclasses.replace(cfg.cognitive, pi=0.7),
        manual=dataclasses.replace(cfg.manual, pi=0.7),
    )
    report = validate_config(cfg)
    assert not report.ok
    assert any("sum" in msg for msg in report.messages())


def test_beta_boundary_rejected():
    cfg = symmetric_economy()
    cfg = dataclasses.replace(cfg, prefs=dataclasses.replace(cfg.prefs, beta=1.0))
    report = validate_config(cfg)
    assert not report.ok
    assert any("discount" in msg for msg in report.messages())


@pytest.mark.parametrize("field,value,fragment", [
    ("a", -1.0, "scale"),
    ("a_ai", 0.0, "AI productivity"),
    ("mu_top", 1.0, "share"),
    ("lambda_c", 0.0, "share"),
    ("sigma_top", 1.5, "exponent"),
    ("delta_k", 1.1, "depreciation"),
])
def test_tech_field_violations(field, value, fragment):
    cfg = symmetric_economy()
    cfg = dataclasses.replace(cfg, tech=dataclasses.replace(cfg.tech, **{field: value}))
    report = validate_config(cfg)
    assert not report.ok
    assert any(fragment in msg for msg in report.messages())


FLOAT_KEYS = [key for key, (_, _, kind) in _SCHEMA.items() if kind is float]
SYMMETRIC = Path(__file__).resolve().parent.parent / "configs" / "symmetric.cfg"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_values_are_rejected(key, value):
    lines = [line for line in SYMMETRIC.read_text().splitlines()
             if not line.startswith(f"{key} ")]
    report = validate_config(parse_config("\n".join([*lines, f"{key} = {value}"])))
    assert (key, f"must be finite, got {float(value)}") in report.failures


def test_complements_nesting_order_enforced():
    # within-nest exponents must lie below the across-nest exponent
    cfg = symmetric_economy()
    bad = dataclasses.replace(cfg.tech, rho_c=0.9, sigma_top=0.5)
    report = validate_config(dataclasses.replace(cfg, tech=bad))
    assert any("rho_c" in name for name, _ in report.failures)


def test_with_param_replaces_only_target():
    cfg = symmetric_economy()
    for name in SWEEP_PARAMS:
        changed = with_param(cfg, name, 0.42 if name != "delta_AI" else 0.05)
        assert changed != cfg
        # round-trip back to the original value restores equality
        section, fld = SWEEP_PARAMS[name]
        original = getattr(getattr(cfg, section), fld)
        assert with_param(changed, name, original) == cfg


def test_with_param_unknown_name():
    with pytest.raises(DomainError, match="unknown sweep parameter"):
        with_param(symmetric_economy(), "beta", 0.9)
