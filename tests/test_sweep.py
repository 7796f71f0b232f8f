import json
import math
from pathlib import Path

import numpy as np
import pytest

from aitax import (apply_ubi, cli, find_threshold, planner, regime_a_economy, regime_b_economy,
                   solve_steady_state, sweep, threshold_economy)
from aitax.configio import parse_config
from aitax.economy import AgentKind
from aitax.errors import (
    ConfigError,
    DomainError,
    SolverError,
    ThresholdRangeError,
    UbiInfeasibleError,
)
from aitax.planner import Regime
from aitax.sweep import SweepResult
from aitax.wedges import compute_wedge_report

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


# exact residual evaluations of the bundled threshold run's sweep, and of a
# cold search over its whole range (the CLI's fallback when there is no single flip)
SWEEP_EVALS = 1808
THRESHOLD_EVALS = 1086


def test_residual_evaluations_of_the_threshold_run(count_evals):
    """The sweep of ``aitax sweep configs/threshold.cfg --param a_AI --lo 0.1
    --hi 10 --points 25 --log --threshold`` and a cold search over [0.1, 10],
    counted exactly.  Warm solves build no cold start, and bisection probes
    solve only the first best."""
    grid = np.geomspace(0.1, 10.0, 25)
    assert count_evals(lambda: sweep(threshold_economy(), "a_AI", grid)) == SWEEP_EVALS
    evals = count_evals(lambda: find_threshold(threshold_economy(), "a_AI", 0.1, 10.0))
    assert evals == THRESHOLD_EVALS


# the bundled run: ``aitax sweep configs/threshold.cfg`` with these arguments
THRESHOLD_RUN = ("--param", "a_AI", "--lo", "0.1", "--hi", "10", "--points", "25", "--log",
                 "--threshold")
# its exact residual evaluations: the sweep, then bisection of the sweep's own
# bracket; and the residual calls they take, one per Jacobian and line-search trial
THRESHOLD_RUN_EVALS = 2074
THRESHOLD_RUN_CALLS = 545


def run_sweep(tmp_path, config_path) -> tuple[int, dict | None]:
    """Exit code and bracket payload (None when none was written) of the
    bundled run's arguments on ``config_path``."""
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", str(config_path), *THRESHOLD_RUN, "--out", str(out)])
    bracket = tmp_path / "sweep.csv.bracket.json"
    return rc, json.loads(bracket.read_text())["payload"] if bracket.exists() else None


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to record its calls; returns the list of calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kw):
        calls.append(args)
        return fn(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_threshold_run_bisects_the_sweeps_bracket(tmp_path, count_evals, monkeypatch):
    """Counted exactly.  Only the solutions the solvers return are built
    (one assumption report each): the 25 grid points and the bracket's two
    ends, not the rejected first bests or the bisection probes."""
    builds = count_calls(monkeypatch, planner, "check_assumptions")
    outcome = []
    run = lambda: outcome.append(run_sweep(tmp_path, CONFIGS / "threshold.cfg"))
    assert (count_evals(run), count_evals.calls) == (THRESHOLD_RUN_EVALS, THRESHOLD_RUN_CALLS)
    assert len(builds) == 25 + 2
    rc, b = outcome[0]
    assert rc == 0 and b["converged"] and b["iterations"] == 5
    # inside the sweep's flip between its grid points 0.1468 and 0.1778
    grid = np.geomspace(0.1, 10.0, 25)
    assert grid[2] <= b["lo"] < b["hi"] <= grid[3]
    assert b["hi"] - b["lo"] <= 1e-3
    assert (b["lo_regime"], b["hi_regime"]) == ("cognitive_binds", "manual_binds")


@pytest.mark.parametrize("economy", [regime_a_economy, regime_b_economy, threshold_economy])
def test_a_steady_solve_builds_one_solution(monkeypatch, economy):
    """The first best is judged from its multipliers and slacks; a rejected
    one is never built into a solution."""
    builds = count_calls(monkeypatch, planner, "check_assumptions")
    assert solve_steady_state(economy()).regime is not Regime.NONE_BIND
    assert len(builds) == 1


@pytest.fixture(scope="module")
def cold_bracket():
    res = find_threshold(threshold_economy(), "a_AI", 0.1, 10.0)
    return res.lo, res.hi


def test_without_a_single_flip_the_search_runs_cold(tmp_path, monkeypatch, cold_bracket):
    monkeypatch.setattr(SweepResult, "threshold_bracket", property(lambda self: None))
    searches = count_calls(monkeypatch, cli, "find_threshold")
    rc, b = run_sweep(tmp_path, CONFIGS / "threshold.cfg")
    assert rc == 0 and (b["lo"], b["hi"]) == cold_bracket
    assert [args[2:] for args in searches] == [(0.1, 10.0)]


def test_seeded_ends_on_one_side_fall_back_to_the_cold_search(tmp_path, monkeypatch, cold_bracket):
    # the sweep's last two grid points both lie on the manual side
    monkeypatch.setattr(SweepResult, "threshold_bracket", property(lambda self: self.values[-2:]))
    searches = count_calls(monkeypatch, cli, "find_threshold")
    rc, b = run_sweep(tmp_path, CONFIGS / "threshold.cfg")
    assert rc == 0 and (b["lo"], b["hi"]) == cold_bracket
    assert len(searches) == 2 and searches[1][2:] == (0.1, 10.0)


# a drawn regime_b-preset economy (bench/fuzz.py, seed 0, draw 14) whose
# 0.1 end of the bundled a_AI range has no interior solution
CORNER_END_ECONOMY = """
agents.cognitive.pi = 0.29793216804159683
agents.cognitive.z = 1.6051215937873922
agents.manual.pi = 0.7020678319584032
agents.manual.z = 1.0125980117566347
prefs.beta = 0.9503153815985651
prefs.u_form = log
prefs.psi = 1.0946886039711965
prefs.phi = 1.8246332160331882
tech.form = nest_substitute_cognitive
tech.a = 2.499936876077294
tech.mu_top = 0.7004042138894634
tech.lambda_c = 0.374560258898564
tech.theta_m = 0.37955748562137903
tech.sigma_top = -0.23693672015904882
tech.rho_c = -1.7540892935569385
tech.rho_m = -1.2747972808195953
tech.a_ai = 0.22294284287171348
tech.delta_k = 0.08285069034714886
tech.delta_ai = 0.130721841515075
"""


def test_the_seeded_search_survives_an_unsolvable_range_end(tmp_path):
    """A cold search dies on the range end the sweep records as a failure;
    seeded from the sweep's flip, it never goes there."""
    config = parse_config(CORNER_END_ECONOMY)
    with pytest.raises(SolverError):
        find_threshold(config, "a_AI", 0.1, 10.0)
    path = tmp_path / "corner.cfg"
    path.write_text(CORNER_END_ECONOMY)
    rc, b = run_sweep(tmp_path, path)
    assert rc == 0 and b["converged"]
    grid = np.geomspace(0.1, 10.0, 25)
    assert grid[2] <= b["lo"] < b["hi"] <= grid[3]
    assert (b["lo_regime"], b["hi_regime"]) == ("cognitive_binds", "manual_binds")


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
        assert np.array_equal(getattr(sol.allocation, field), getattr(base.allocation, field)), field
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
