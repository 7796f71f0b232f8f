import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aitax import (
    AgentKind,
    SolveMode,
    compute_wedge_report,
    intertemporal_wedge,
    intratemporal_wedge,
    regime_a_economy,
    solve_finite_horizon,
    solve_steady_state,
    verify_propositions,
    wedge_via_multipliers,
)
from aitax import wedges
from aitax.configio import load_config
from aitax.errors import DomainError, OutOfHorizonError
from aitax.preferences import u_prime
from aitax.production import evaluate
from aitax.wedges import (
    VERDICT_NOT_APPLICABLE,
    VERDICT_PASS,
    intertemporal_wedge_formula,
    intratemporal_wedge_formula,
)

C = AgentKind.COGNITIVE
M = AgentKind.MANUAL
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_symmetric_wedges_vanish(symmetric_solution):
    report = compute_wedge_report(symmetric_solution)
    for h in (C, M):
        assert abs(report.tau_k[h]) <= 1e-6
        assert abs(report.tau_ai[h]) <= 1e-6
        assert abs(report.tau_y[h]) <= 1e-6


def test_regime_a_sign_pattern(regime_a_solution):
    report = compute_wedge_report(regime_a_solution)
    assert report.tau_k[C] > 1e-6
    assert report.tau_ai[C] < -1e-6
    assert report.tau_y[C] < -1e-6
    # the undistorted manual margin is subsidized through the wage channel
    assert report.tau_y[M] > 0.0
    assert abs(report.tau_k[C] - report.tau_k[M]) <= 1e-6
    assert abs(report.tau_ai[C] - report.tau_ai[M]) <= 1e-6


def test_regime_a_verdicts(regime_a_solution):
    verdicts = verify_propositions(regime_a_solution)
    assert set(verdicts) == {"P1", "P2", "P3", "P1p", "P2p", "P3p"}
    for key in ("P1", "P2", "P3"):
        assert verdicts[key].verdict == VERDICT_PASS, verdicts[key]
        assert verdicts[key].margin > 0.0
    for key in ("P1p", "P2p", "P3p"):
        assert verdicts[key].verdict == VERDICT_NOT_APPLICABLE


def test_regime_b_verdicts(regime_b_solution):
    verdicts = verify_propositions(regime_b_solution)
    for key in ("P1p", "P2p", "P3p"):
        assert verdicts[key].verdict == VERDICT_PASS, verdicts[key]
    for key in ("P1", "P2", "P3"):
        assert verdicts[key].verdict == VERDICT_NOT_APPLICABLE
    report = compute_wedge_report(regime_b_solution)
    assert report.tau_ai[C] > 1e-6
    assert report.tau_k[C] < -1e-6
    assert report.tau_y[M] < -1e-6


def test_none_bind_claims_not_applicable(symmetric_solution):
    verdicts = verify_propositions(symmetric_solution)
    assert all(v.verdict == VERDICT_NOT_APPLICABLE for v in verdicts.values())


def test_formula_and_multiplier_wedges_agree(regime_a_solution, regime_b_solution):
    for s in (regime_a_solution, regime_b_solution):
        for stock in ("k", "ai"):
            via_mult = wedge_via_multipliers(s, stock)
            via_formula = intertemporal_wedge(s, C, stock)
            assert via_mult == pytest.approx(via_formula, abs=1e-8)


def test_stationary_wedge_is_return_based(regime_a_solution):
    """In a steady state the consumption ratio drops out: tau = 1 - 1/(beta*R)."""
    s = regime_a_solution
    beta = s.config.prefs.beta
    tau_k = intertemporal_wedge(s, C, "k")
    a = s.allocation
    ev = evaluate(s.config.tech, a.eff_l_c[0], a.eff_l_m[0], a.k[0], a.ai[0])
    assert tau_k == pytest.approx(1.0 - 1.0 / (beta * float(ev.fw_k)), rel=1e-10)


@given(
    up=st.floats(1e-6, 1e6),
    kappa=st.floats(1e-3, 1e3),
    beta=st.floats(0.5, 0.999),
    ret=st.floats(0.5, 2.0),
    ratio=st.floats(0.5, 2.0),
)
def test_intertemporal_formula_cardinalization(up, kappa, beta, ret, ratio):
    """Scaling marginal utility in both periods leaves the wedge unchanged."""
    base = intertemporal_wedge_formula(up, up * ratio, beta, ret)
    scaled = intertemporal_wedge_formula(kappa * up, kappa * up * ratio, beta, ret)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


@given(
    nu_p=st.floats(1e-6, 1e3),
    w=st.floats(1e-3, 1e3),
    up=st.floats(1e-6, 1e3),
    kappa=st.floats(1e-3, 1e3),
)
def test_intratemporal_formula_cardinalization(nu_p, w, up, kappa):
    base = intratemporal_wedge_formula(nu_p, w, up)
    scaled = intratemporal_wedge_formula(kappa * nu_p, w, kappa * up)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


@given(beta=st.floats(0.5, 0.999), up=st.floats(1e-3, 1e3), ret=st.floats(0.5, 2.0))
def test_undistorted_margin_has_zero_wedge(beta, up, ret):
    # u'(t) = beta * u'(t+1) * R is the undistorted Euler equation
    assert intertemporal_wedge_formula(beta * ret * up, up, beta, ret) == \
        pytest.approx(0.0, abs=1e-10)


def test_zero_labor_gives_nan_wedge(symmetric_solution):
    s = symmetric_solution
    crippled = dataclasses.replace(
        s, allocation=dataclasses.replace(s.allocation, l_m=np.zeros(1)))
    assert math.isnan(intratemporal_wedge(crippled, M))
    assert not math.isnan(intratemporal_wedge(crippled, C))


def test_bad_stock_name(regime_a_solution):
    with pytest.raises(DomainError):
        intertemporal_wedge(regime_a_solution, C, "land")
    with pytest.raises(DomainError):
        wedge_via_multipliers(regime_a_solution, "labor")


def test_finite_horizon_wedges_and_bounds():
    cfg = regime_a_economy()
    ss = solve_steady_state(cfg)
    cfg = dataclasses.replace(
        cfg, mode=SolveMode.FINITE_HORIZON, horizon=6,
        k0=float(ss.allocation.k[0]) * 0.8, ai0=float(ss.allocation.ai[0]) * 0.8,
    )
    path = solve_finite_horizon(cfg)
    n = path.allocation.n_periods
    for t in range(n - 1):
        for stock in ("k", "ai"):
            assert intertemporal_wedge(path, C, stock, t) == pytest.approx(
                wedge_via_multipliers(path, stock, t), abs=1e-8)
        # the savings wedge never depends on who saves
        assert intertemporal_wedge(path, C, "k", t) == pytest.approx(
            intertemporal_wedge(path, M, "k", t), abs=1e-10)
    with pytest.raises(OutOfHorizonError):
        intertemporal_wedge(path, C, "k", n - 1)
    with pytest.raises(OutOfHorizonError):
        wedge_via_multipliers(path, "ai", -1)
    verdicts = verify_propositions(path)
    assert verdicts["P2"].verdict == VERDICT_PASS


def test_stationary_accepts_any_transition_index(regime_a_solution):
    assert intertemporal_wedge(regime_a_solution, C, "k", 0) == \
        intertemporal_wedge(regime_a_solution, C, "k", 17)


def test_one_wedge_table_per_report(monkeypatch):
    """The report evaluates the technology once for the whole path, and its
    per-transition wedges match a loop over the transitions."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    path = solve_finite_horizon(config)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(wedges, "evaluate", counted)
    report = compute_wedge_report(path)
    assert calls == 1

    a, prefs = path.allocation, config.prefs
    taus = []
    for t in range(a.n_periods - 1):
        ev = evaluate(config.tech, a.eff_l_c[t + 1], a.eff_l_m[t + 1], a.k[t + 1], a.ai[t + 1])
        tau = 1.0 - u_prime(prefs, a.c_c[t]) / (prefs.beta * u_prime(prefs, a.c_c[t + 1]) * ev.fw_k)
        assert intertemporal_wedge(path, C, "k", t) == pytest.approx(tau, rel=1e-12, abs=1e-15)
        taus.append(tau)
    assert report.tau_k[C] == pytest.approx(taus[0], rel=1e-12)
    assert report.verdicts["P2"].observed["tau_k"] == pytest.approx(min(taus), rel=1e-12)
