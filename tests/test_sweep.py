import math

import numpy as np
import pytest

from aitax import apply_ubi, find_threshold, regime_a_economy, sweep, threshold_economy
from aitax.economy import AgentKind
from aitax.errors import (
    ConfigError,
    DomainError,
    ThresholdRangeError,
    UbiInfeasibleError,
)
from aitax.planner import Regime
from aitax.wedges import compute_wedge_report

A_AI_GRID = tuple(np.geomspace(0.1, 1.0, 7))


@pytest.fixture(scope="module")
def a_ai_sweep():
    return sweep(threshold_economy(), "a_AI", A_AI_GRID)


def test_sweep_solves_every_point(a_ai_sweep):
    assert a_ai_sweep.param == "a_AI"
    assert a_ai_sweep.n_failures == 0
    assert a_ai_sweep.values == pytest.approx(A_AI_GRID)
    for p, sol in zip(a_ai_sweep.points, a_ai_sweep.solutions):
        assert p.ok and sol is not None
        assert math.isfinite(p.objective)
        assert p.wage_ratio > 0.0


def test_sweep_regimes_are_ordered(a_ai_sweep):
    regimes = [p.regime for p in a_ai_sweep.points]
    flip_at = regimes.index("manual_binds")
    assert all(r == "cognitive_binds" for r in regimes[:flip_at])
    assert all(r == "manual_binds" for r in regimes[flip_at:])
    assert 0 < flip_at < len(regimes)


def test_sweep_finds_exactly_one_flip(a_ai_sweep):
    brackets = a_ai_sweep.flip_brackets()
    assert len(brackets) == 1
    assert a_ai_sweep.threshold_bracket == brackets[0]
    lo, hi = brackets[0]
    i = a_ai_sweep.values.index(lo)
    # AI goes from subsidized to taxed across the flip
    assert a_ai_sweep.points[i].tau_ai < 0.0 < a_ai_sweep.points[i + 1].tau_ai


@pytest.mark.parametrize("values", [(1.0,), (1.0, 1.0), (2.0, 1.0)])
def test_sweep_rejects_bad_grids(values):
    with pytest.raises(DomainError):
        sweep(threshold_economy(), "a_AI", values)


def test_sweep_validates_configs_before_solving():
    with pytest.raises(ConfigError, match="invalid economy"):
        sweep(threshold_economy(), "delta_AI", [0.1, 1.5])


def test_sweep_unknown_param():
    with pytest.raises(DomainError, match="unknown sweep parameter"):
        sweep(threshold_economy(), "frobnication", [0.1, 0.2])


def test_find_threshold_brackets_the_flip():
    res = find_threshold(threshold_economy(), "a_AI", 0.1, 1.0, tol_param=1e-3)
    assert res.converged
    assert res.width <= 1e-3
    assert 0.1 < res.lo < res.hi < 1.0
    assert res.lo_regime is Regime.COGNITIVE_BINDS
    assert res.hi_regime is Regime.MANUAL_BINDS
    # consistent with the coarse sweep bracket on the same interval
    assert 0.14 < res.lo and res.hi < 0.22
    assert res.lo < res.midpoint < res.hi
    assert res.trace[0] == (0.1, "cognitive_binds")
    assert res.trace[1] == (1.0, "manual_binds")
    assert res.anomalies == ()
    assert len(res.trace) == 2 + res.iterations
    assert res.lo_solution.regime is Regime.COGNITIVE_BINDS
    assert res.hi_solution.regime is Regime.MANUAL_BINDS


def test_find_threshold_converges_at_a_tight_tolerance():
    """The first best's side has no window around the flip in which
    neither constraint binds, so bisection reaches any tolerance."""
    res = find_threshold(threshold_economy(), "a_AI", 0.1, 10.0, tol_param=1e-9)
    assert res.converged
    assert res.width <= 1e-9
    assert res.anomalies == ()
    assert len(res.trace) == 2 + res.iterations


def test_find_threshold_stops_at_adjacent_floats():
    res = find_threshold(threshold_economy(), "a_AI", 0.1, 10.0, tol_param=1e-30)
    assert not res.converged
    assert res.anomalies == ()
    assert res.hi == np.nextafter(res.lo, np.inf)


# exact residual evaluations of the bundled threshold run's two stages
SWEEP_EVALS = 1808
THRESHOLD_EVALS = 1086


def test_residual_evaluations_of_the_threshold_run(count_evals):
    """``aitax sweep configs/threshold.cfg --param a_AI --lo 0.1 --hi 10
    --points 25 --log --threshold``, counted exactly.  Warm solves build no
    cold start, and bisection probes solve only the first best."""
    grid = np.geomspace(0.1, 10.0, 25)
    assert count_evals(lambda: sweep(threshold_economy(), "a_AI", grid)) == SWEEP_EVALS
    evals = count_evals(lambda: find_threshold(threshold_economy(), "a_AI", 0.1, 10.0))
    assert evals == THRESHOLD_EVALS


def test_find_threshold_endpoint_order_is_irrelevant():
    a = find_threshold(threshold_economy(), "a_AI", 0.1, 1.0, tol_param=5e-3)
    b = find_threshold(threshold_economy(), "a_AI", 1.0, 0.1, tol_param=5e-3)
    assert (a.lo, a.hi) == (b.lo, b.hi)
    assert a.iterations == b.iterations
    assert a.trace == b.trace


def test_find_threshold_needs_differing_regimes():
    with pytest.raises(ThresholdRangeError, match="different single types"):
        find_threshold(threshold_economy(), "a_AI", 1.0, 10.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(param="frobnication", lo=0.1, hi=1.0),
        dict(param="a_AI", lo=0.1, hi=1.0, tol_param=0.0),
        dict(param="a_AI", lo=0.5, hi=0.5),
    ],
)
def test_find_threshold_validation(kwargs):
    with pytest.raises(DomainError):
        find_threshold(threshold_economy(), **kwargs)


def test_ubi_zero_matches_plain_solve(regime_a_solution):
    sol = apply_ubi(regime_a_economy(), 0.0)
    assert sol.regime is regime_a_solution.regime
    assert sol.objective == regime_a_solution.objective
    assert np.array_equal(sol.allocation.c_c, regime_a_solution.allocation.c_c)
    assert np.array_equal(sol.allocation.k, regime_a_solution.allocation.k)


def test_ubi_is_neutral(regime_a_solution):
    base = regime_a_solution
    ubi = 0.1 * float(base.allocation.c_m[0])
    sol = apply_ubi(regime_a_economy(), ubi)
    assert sol.regime is base.regime
    for field in ("c_c", "c_m", "l_c", "l_m", "k", "ai"):
        got = getattr(sol.allocation, field)
        want = getattr(base.allocation, field)
        assert got == pytest.approx(want, abs=1e-8), field
    # the per-type floors stay interior after carving out the transfer
    assert float(sol.allocation.c_m[0]) - ubi > 0.0
    assert float(sol.allocation.c_c[0]) - ubi > 0.0
    want = compute_wedge_report(base)
    got = compute_wedge_report(sol)
    for h in AgentKind:
        assert got.tau_k[h] == pytest.approx(want.tau_k[h], abs=1e-8)
        assert got.tau_ai[h] == pytest.approx(want.tau_ai[h], abs=1e-8)
        assert got.tau_y[h] == pytest.approx(want.tau_y[h], abs=1e-8)


def test_ubi_too_large(regime_a_solution):
    c_min = float(regime_a_solution.allocation.c_m[0])
    with pytest.raises(UbiInfeasibleError, match="smallest optimal"):
        apply_ubi(regime_a_economy(), c_min)
    with pytest.raises(UbiInfeasibleError):
        apply_ubi(regime_a_economy(), 10.0)


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_ubi_rejects_bad_values(bad):
    with pytest.raises(DomainError):
        apply_ubi(regime_a_economy(), bad)
