import itertools
import math

import numpy as np
import pytest

from aitax import (
    brute_force_steady,
    regime_a_economy,
    solve_steady_state,
    symmetric_economy,
)
from aitax.errors import DomainError, EmptyFeasibleSetError
from aitax.oracle import AxisSpec, GridSpec, agreement, grid_bracketing
from aitax.planner import Regime
from aitax.preferences import nu_eval, u_eval
from aitax.production import output, wages


def small_grid(solution, points=4, frac=0.4):
    return grid_bracketing(solution, frac=frac, points=points)


def test_axis_spec_validation():
    with pytest.raises(DomainError):
        AxisSpec(lo=0.1, hi=1.0, points=2)
    with pytest.raises(DomainError):
        AxisSpec(lo=1.0, hi=1.0, points=3)
    with pytest.raises(DomainError):
        AxisSpec(lo=0.0, hi=1.0, points=3)
    ax = AxisSpec(lo=1.0, hi=2.0, points=5)
    assert ax.step == pytest.approx(0.25)
    assert list(ax.values()) == pytest.approx([1.0, 1.25, 1.5, 1.75, 2.0])


def test_grid_spec_diagonal():
    ax = AxisSpec(lo=1.0, hi=2.0, points=5)
    grid = GridSpec(ax, ax, ax, ax, ax, ax)
    assert grid.diagonal_step == pytest.approx(math.sqrt(6 * 0.25**2))
    assert grid.n_points == 5**6


def test_symmetric_regime_and_agreement(symmetric_solution):
    grid = small_grid(symmetric_solution, points=6)
    res = brute_force_steady(symmetric_economy(), grid)
    assert res.regime is Regime.NONE_BIND
    ag = agreement(symmetric_solution, res)
    assert ag["objective_ok"] and ag["regime_ok"]
    assert res.gap_allowance == pytest.approx(10.0 * res.h)


def test_regime_a_oracle_regime(regime_a_solution):
    grid = small_grid(regime_a_solution, points=6)
    assert brute_force_steady(regime_a_economy(), grid).regime is Regime.COGNITIVE_BINDS


def test_pure_python_rescanner_agrees(regime_a_solution):
    """Re-run the search with plain nested loops and compare point for point.

    This independently re-derives feasibility, both incentive slacks, the
    objective, and the first-maximum tie-break on a grid small enough to
    enumerate (4**6 = 4096 candidates).
    """
    cfg = regime_a_economy()
    grid = small_grid(regime_a_solution, points=4)
    res = brute_force_steady(cfg, grid)

    prefs = cfg.prefs
    pi_c, z_c = cfg.cognitive.pi, cfg.cognitive.z
    pi_m, z_m = cfg.manual.pi, cfg.manual.z
    best = None
    best_pt = None
    n_feas = n_ic = 0
    axes = [list(a.values()) for a in grid.axes()]
    for c_c, c_m, l_c, l_m, k, ai in itertools.product(*axes):
        el_c, el_m = pi_c * z_c * l_c, pi_m * z_m * l_m
        y = output(cfg.tech, el_c, el_m, k, ai)
        spend = (pi_c * c_c + pi_m * c_m
                 + cfg.tech.delta_k * k + cfg.tech.delta_ai * ai + cfg.g)
        if spend > y:
            continue
        n_feas += 1
        w_c, w_m = wages(cfg.tech, cfg, el_c, el_m, k, ai)
        own_c = u_eval(prefs, c_c) - nu_eval(prefs, l_c)
        own_m = u_eval(prefs, c_m) - nu_eval(prefs, l_m)
        if own_c < u_eval(prefs, c_m) - nu_eval(prefs, l_m * w_m / w_c):
            continue
        if own_m < u_eval(prefs, c_c) - nu_eval(prefs, l_c * w_c / w_m):
            continue
        n_ic += 1
        obj = (pi_c * own_c + pi_m * own_m) / (1.0 - prefs.beta)
        if best is None or obj > best:  # strict: ties keep the earlier point
            best = obj
            best_pt = (c_c, c_m, l_c, l_m, k, ai)

    assert n_feas == res.n_feasible
    assert n_ic == res.n_incentive_compatible
    assert best == pytest.approx(res.objective, rel=1e-12)
    assert best_pt == tuple(res.point[name] for name in ("c_c", "c_m", "l_c", "l_m", "k", "ai"))


def test_refining_the_grid_never_lowers_the_best():
    cfg = symmetric_economy()
    sol = solve_steady_state(cfg)
    coarse = small_grid(sol, points=4)
    fine = GridSpec(**{
        name: AxisSpec(lo=ax.lo, hi=ax.hi, points=2 * ax.points - 1)
        for name, ax in zip(("c_c", "c_m", "l_c", "l_m", "k", "ai"), coarse.axes())
    })
    lo = brute_force_steady(cfg, coarse)
    hi = brute_force_steady(cfg, fine)
    # the doubled grid contains every coarse point, so the max cannot drop
    assert hi.objective >= lo.objective
    assert hi.h < lo.h


def test_relaxation_objectives_are_nested(regime_a_solution):
    res = brute_force_steady(regime_a_economy(), small_grid(regime_a_solution, points=5))
    assert res.objective <= res.objective_drop_c
    assert res.objective <= res.objective_drop_m
    assert res.objective_drop_c <= res.objective_no_icc
    assert res.objective_drop_m <= res.objective_no_icc
    # dropping the binding cognitive constraint is what helps
    assert res.objective_drop_c > res.objective
    assert res.objective_drop_m == res.objective


def test_empty_feasible_set():
    cfg = symmetric_economy()
    rich = AxisSpec(lo=50.0, hi=60.0, points=3)
    small = AxisSpec(lo=0.1, hi=0.2, points=3)
    with pytest.raises(EmptyFeasibleSetError, match="feasibility"):
        brute_force_steady(cfg, GridSpec(rich, rich, small, small, small, small))


def test_no_incentive_compatible_point():
    # feasible, but c_c >> c_m at equal wages violates the manual constraint
    cfg = symmetric_economy()
    c_hi = AxisSpec(lo=0.30, hi=0.35, points=3)
    c_lo = AxisSpec(lo=0.01, hi=0.02, points=3)
    l_ax = AxisSpec(lo=0.8, hi=1.0, points=3)
    k_ax = AxisSpec(lo=0.5, hi=0.9, points=3)
    with pytest.raises(EmptyFeasibleSetError, match="incentive"):
        brute_force_steady(cfg, GridSpec(c_hi, c_lo, l_ax, l_ax, k_ax, k_ax))


def test_grid_bracketing_validation(regime_a_solution):
    with pytest.raises(DomainError):
        grid_bracketing(regime_a_solution, frac=1.5)
    grid = grid_bracketing(regime_a_solution, frac=0.25, points=5)
    a = regime_a_solution.allocation
    assert grid.k.lo == pytest.approx(0.75 * float(a.k[0]))
    assert grid.k.hi == pytest.approx(1.25 * float(a.k[0]))
