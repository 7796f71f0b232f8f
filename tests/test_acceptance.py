"""Acceptance gate: one test per release criterion.

Each test is self-contained (fresh solves, no session fixtures) so the
runtime budgets measure real cost, and prints its key observables so a
verbose run doubles as a numeric report.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from aitax import (
    apply_ubi,
    brute_force_steady,
    cobb_douglas_economy,
    compute_wedge_report,
    find_threshold,
    intertemporal_wedge,
    intratemporal_wedge,
    regime_a_economy,
    regime_b_economy,
    solve_finite_horizon,
    solve_steady_state,
    sweep,
    symmetric_economy,
    threshold_economy,
    wedge_via_multipliers,
)
from aitax.economy import AgentKind, SolveMode
from aitax.errors import DomainError
from aitax.oracle import agreement, grid_bracketing
from aitax.planner import TOL_ICC, Regime
from aitax.production import check_assumptions, evaluate

TOL_SIGN = 1e-6
TOL_EQUIV = 1e-8

DESKS = (symmetric_economy, regime_a_economy, regime_b_economy)


def _stationary_mp(solution):
    a = solution.allocation
    return evaluate(
        solution.config.tech,
        float(a.eff_l_c[0]), float(a.eff_l_m[0]), float(a.k[0]), float(a.ai[0]),
    )


def test_criterion_01_symmetric_economy_has_zero_wedges():
    start = time.perf_counter()
    sol = solve_steady_state(symmetric_economy())
    report = compute_wedge_report(sol)
    elapsed = time.perf_counter() - start

    assert sol.regime is Regime.NONE_BIND
    assert sol.multipliers.mu_c == 0.0
    assert sol.multipliers.mu_m == 0.0
    worst = max(
        max(abs(report.tau_k[h]), abs(report.tau_ai[h]), abs(report.tau_y[h]))
        for h in AgentKind
    )
    assert worst <= TOL_SIGN
    assert elapsed < 1.0
    print(f"\n[1] none_bind, max |wedge| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_cognitive_binding_desk_passes_p1_p2_p3():
    start = time.perf_counter()
    sol = solve_steady_state(regime_a_economy())
    report = compute_wedge_report(sol)
    elapsed = time.perf_counter() - start

    assert sol.regime is Regime.COGNITIVE_BINDS
    mp = _stationary_mp(sol)
    assert mp.fw_k > mp.fw_ai  # P1
    for h in AgentKind:  # P2 signs
        assert report.tau_k[h] > TOL_SIGN
        assert report.tau_ai[h] < -TOL_SIGN
    assert abs(report.tau_k[AgentKind.COGNITIVE] - report.tau_k[AgentKind.MANUAL]) <= TOL_SIGN
    assert abs(report.tau_ai[AgentKind.COGNITIVE] - report.tau_ai[AgentKind.MANUAL]) <= TOL_SIGN
    assert report.tau_y[AgentKind.COGNITIVE] < -TOL_SIGN  # P3
    assert all(report.verdicts[key].verdict == "pass" for key in ("P1", "P2", "P3"))
    assert elapsed < 5.0
    print(f"\n[2] cognitive_binds, tau_k = {report.tau_k[AgentKind.COGNITIVE]:.3e}, "
          f"tau_ai = {report.tau_ai[AgentKind.COGNITIVE]:.3e}, {elapsed:.2f}s")


def test_criterion_03_manual_binding_desk_passes_mirrored_claims():
    start = time.perf_counter()
    sol = solve_steady_state(regime_b_economy())
    report = compute_wedge_report(sol)
    elapsed = time.perf_counter() - start

    assert sol.regime is Regime.MANUAL_BINDS
    mp = _stationary_mp(sol)
    assert mp.fw_ai > mp.fw_k  # P1'
    for h in AgentKind:  # P2' signs
        assert report.tau_ai[h] > TOL_SIGN
        assert report.tau_k[h] < -TOL_SIGN
    assert abs(report.tau_k[AgentKind.COGNITIVE] - report.tau_k[AgentKind.MANUAL]) <= TOL_SIGN
    assert abs(report.tau_ai[AgentKind.COGNITIVE] - report.tau_ai[AgentKind.MANUAL]) <= TOL_SIGN
    assert report.tau_y[AgentKind.MANUAL] < -TOL_SIGN  # P3'
    assert all(report.verdicts[key].verdict == "pass" for key in ("P1p", "P2p", "P3p"))
    assert elapsed < 5.0
    print(f"\n[3] manual_binds, tau_k = {report.tau_k[AgentKind.COGNITIVE]:.3e}, "
          f"tau_ai = {report.tau_ai[AgentKind.COGNITIVE]:.3e}, {elapsed:.2f}s")


def test_criterion_04_wedge_formulas_agree_and_kkt_holds():
    worst_gap = worst_res = 0.0
    for preset in DESKS:
        sol = solve_steady_state(preset())
        for stock in ("k", "ai"):
            via_mult = wedge_via_multipliers(sol, stock)
            for h in AgentKind:
                gap = abs(intertemporal_wedge(sol, h, stock) - via_mult)
                worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, sol.foc_residual)
    assert worst_gap <= TOL_EQUIV
    assert worst_res <= 1e-8
    print(f"\n[4] max formula gap = {worst_gap:.2e}, max KKT residual = {worst_res:.2e}")


def test_criterion_05_grid_oracle_agrees_on_all_desks():
    for preset in DESKS:
        start = time.perf_counter()
        config = preset()
        sol = solve_steady_state(config)
        oracle = brute_force_steady(config, grid_bracketing(sol, frac=0.4, points=8))
        ag = agreement(sol, oracle)
        elapsed = time.perf_counter() - start
        assert ag["objective_ok"], (preset.__name__, ag)
        assert ag["regime_ok"], (preset.__name__, ag)
        assert sol.regime is oracle.regime
        for mu, slack in ((sol.multipliers.mu_c, sol.slack_c), (sol.multipliers.mu_m, sol.slack_m)):
            assert mu <= TOL_ICC or abs(slack) <= TOL_ICC, (preset.__name__, mu, slack)
        assert elapsed < 60.0
        print(f"\n[5] {preset.__name__}: gap = {ag['objective_gap']:.3e} "
              f"(allowance {oracle.gap_allowance:.2e}), regime {oracle.regime.value}, "
              f"{elapsed:.2f}s")


def grad_check(tech, point, step: float) -> float:
    """Max relative gap between analytic and central-difference marginal products.

    ``point`` is (L_c, L_m, K, AI); the relative gap divides by
    max(1, |analytic|) per component.
    """
    pt = [float(v) for v in point]
    if len(pt) != 4:
        raise DomainError(f"point must have 4 coordinates, got {len(pt)}")
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    if step >= min(pt):
        raise DomainError(f"step {step} is too large for point {pt}")
    ev = evaluate(tech, *pt)
    analytic = (ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai)
    worst = 0.0
    for i in range(4):
        hi = list(pt)
        lo = list(pt)
        hi[i] += step
        lo[i] -= step
        numeric = (evaluate(tech, *hi).y - evaluate(tech, *lo).y) / (2.0 * step)
        err = abs(numeric - analytic[i]) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


def test_criterion_06_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(20240817)
    forms = {
        "nest_complements": symmetric_economy().tech,
        "nest_substitute_cognitive": threshold_economy().tech,
        "cobb_douglas": cobb_douglas_economy().tech,
    }
    for name, tech in forms.items():
        worst_grad = worst_euler = 0.0
        for _ in range(100):
            pt = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4))
            worst_grad = max(worst_grad, grad_check(tech, pt, step=1e-5 * float(pt.min())))
            ev = evaluate(tech, *pt)
            euler = pt[0] * ev.f_lc + pt[1] * ev.f_lm + pt[2] * ev.f_k + pt[3] * ev.f_ai
            worst_euler = max(worst_euler, abs(euler - ev.y) / abs(ev.y))
        assert worst_grad <= 1e-6, name
        assert worst_euler <= 1e-8, name
        print(f"\n[6] {name}: max gradient err = {worst_grad:.2e}, "
              f"max Euler err = {worst_euler:.2e}")


def test_criterion_07_ai_productivity_sweep_has_one_flip_with_tight_bracket():
    start = time.perf_counter()
    config = threshold_economy()
    values = np.geomspace(0.1, 10.0, 25)
    result = sweep(config, "a_AI", values)
    assert result.n_failures == 0
    flips = result.flip_brackets()
    assert len(flips) == 1
    grid_lo, grid_hi = flips[0]
    i = result.values.index(grid_lo)
    assert result.points[i].regime == "cognitive_binds"
    assert result.points[i + 1].regime == "manual_binds"

    th = find_threshold(config, "a_AI", 0.1, 10.0, tol_param=1e-3)
    elapsed = time.perf_counter() - start
    assert th.converged
    assert th.width <= 1e-3
    assert grid_lo <= th.lo < th.hi <= grid_hi
    tau_lo = intertemporal_wedge(th.lo_solution, AgentKind.COGNITIVE, "ai")
    tau_hi = intertemporal_wedge(th.hi_solution, AgentKind.COGNITIVE, "ai")
    assert tau_lo < 0.0 < tau_hi
    assert elapsed < 60.0
    print(f"\n[7] flip in [{grid_lo:.4f}, {grid_hi:.4f}], bisected to "
          f"[{th.lo:.6f}, {th.hi:.6f}], tau_ai {tau_lo:.2e} -> {tau_hi:.2e}, {elapsed:.2f}s")


def test_criterion_08_uniform_transfer_is_neutral():
    config = regime_a_economy()
    base = solve_steady_state(config)

    zero = apply_ubi(config, 0.0)
    for field in ("c_c", "c_m", "l_c", "l_m", "eff_l_c", "eff_l_m", "k", "ai"):
        assert np.array_equal(getattr(zero.allocation, field),
                              getattr(base.allocation, field)), field
    assert np.array_equal(zero.multipliers.lam, base.multipliers.lam)
    assert zero.objective == base.objective

    ubi = 0.05 * float(base.allocation.c_m[0])
    shifted = apply_ubi(config, ubi)
    assert shifted.regime is base.regime
    worst = 0.0
    for h in AgentKind:
        for wedge in (intertemporal_wedge(shifted, h, "k") - intertemporal_wedge(base, h, "k"),
                      intertemporal_wedge(shifted, h, "ai") - intertemporal_wedge(base, h, "ai"),
                      intratemporal_wedge(shifted, h) - intratemporal_wedge(base, h)):
            worst = max(worst, abs(wedge))
        assert math.copysign(1, intertemporal_wedge(shifted, h, "k")) == \
            math.copysign(1, intertemporal_wedge(base, h, "k"))
        assert math.copysign(1, intertemporal_wedge(shifted, h, "ai")) == \
            math.copysign(1, intertemporal_wedge(base, h, "ai"))
    assert worst <= TOL_EQUIV
    print(f"\n[8] ubi = {ubi:.4f}: regime unchanged, max wedge shift = {worst:.2e}")


def test_criterion_09_twenty_period_solve_from_steady_state_stays_there():
    start = time.perf_counter()
    steady = solve_steady_state(regime_a_economy())
    config = replace(
        regime_a_economy(),
        mode=SolveMode.FINITE_HORIZON, horizon=20,
        k0=float(steady.allocation.k[0]), ai0=float(steady.allocation.ai[0]),
    )
    sol = solve_finite_horizon(config)
    elapsed = time.perf_counter() - start

    drift = 0.0
    for field in ("c_c", "c_m", "l_c", "l_m", "k", "ai"):
        arr = getattr(sol.allocation, field)
        want = float(getattr(steady.allocation, field)[0])
        drift = max(drift, float(np.max(np.abs(arr - want))))
    assert drift <= 1e-8
    assert sol.foc_residual <= 1e-8
    assert elapsed < 30.0
    print(f"\n[9] T=20 from steady state: max drift = {drift:.2e}, "
          f"KKT residual = {sol.foc_residual:.2e}, {elapsed:.2f}s")


def test_criterion_10_assumption_checker_negative_control():
    cobb = check_assumptions(cobb_douglas_economy().tech)
    by_name = {c.name: c for c in cobb.checks()}
    assert by_name["A1"].verdict == "non_strict"
    assert not cobb.all_pass

    for preset in (regime_a_economy, regime_b_economy):
        report = check_assumptions(preset().tech)
        verdicts = {c.name: c.verdict for c in report.checks()}
        assert verdicts == {"A1": "pass", "A2": "pass", "A3": "pass"}, preset.__name__
        assert report.all_pass
    print("\n[10] cobb_douglas A1 non_strict; both nest desk forms pass A1-A3")
