import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from aitax import (apply_ubi, cli, find_threshold, planner, regime_a_economy, regime_b_economy,
                   solve_steady_state, sweep, threshold_economy)
from aitax.configio import parse_config
from aitax.economy import AgentKind, with_param
from aitax.errors import (
    ConfigError,
    DomainError,
    NoInteriorSolutionError,
    SolverError,
    ThresholdRangeError,
    UbiInfeasibleError,
)
from aitax.planner import TOL_ICC, Regime
from aitax.reporting import assumption_payload, dumps
from aitax.sweep import SweepResult, _failure, _metrics, _secant
from aitax.wedges import compute_wedge_report
from second_order import reduced_hessian_eigenvalues

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
# cold search over its whole range (the CLI's fallback when there is no single
# flip), and their Newton iterations.  Each sweep point solved its first best
# before its regime in 219 evaluations and 167 iterations, with forward-
# difference Jacobians in 1,444; the cold search took 702 with them.
SWEEP_EVALS = 124
THRESHOLD_EVALS = 119
SWEEP_ITERATIONS = 95
THRESHOLD_ITERATIONS = 86


def test_residual_evaluations_of_the_threshold_run(count_evals):
    """The sweep of ``aitax sweep configs/threshold.cfg --param a_AI --lo 0.1
    --hi 10 --points 25 --log --threshold`` and a cold search over [0.1, 10],
    counted exactly.  Warm solves build no cold start, predicted starts take
    no residual call of their own, a point warm in one binding regime solves
    that regime without a first best, and bisection probes solve only the
    first best."""
    grid = np.geomspace(0.1, 10.0, 25)
    assert count_evals(lambda: sweep(threshold_economy(), "a_AI", grid)) == SWEEP_EVALS
    assert count_evals.iterations == SWEEP_ITERATIONS
    evals = count_evals(lambda: find_threshold(threshold_economy(), "a_AI", 0.1, 10.0))
    assert (evals, count_evals.iterations) == (THRESHOLD_EVALS, THRESHOLD_ITERATIONS)


# the bundled run: ``aitax sweep configs/threshold.cfg`` with these arguments
THRESHOLD_RUN = ("--param", "a_AI", "--lo", "0.1", "--hi", "10", "--points", "25", "--log",
                 "--threshold")
# its exact residual evaluations, the sweep's and then those of bisecting the
# sweep's own bracket, one point per call and one call per line-search trial
# (every Jacobian is exact and costs none); and their Newton iterations.
# With a first best at every sweep point the run took 248 evaluations in 185
# iterations, and forward-difference Jacobians 1,606 in 433 calls.
THRESHOLD_RUN_EVALS = 156
THRESHOLD_RUN_ITERATIONS = 116
# the bracket the bundled run writes, and the trace of sides that led to it
THRESHOLD_RUN_BRACKET = (0.15260142943252294, 0.1535716798775756)
THRESHOLD_RUN_TRACE = [
    [0.14677992676220694, "cognitive_binds"], [0.1778279410038923, "manual_binds"],
    [0.16230393388304962, "manual_binds"], [0.15454193032262828, "manual_binds"],
    [0.1506609285424176, "cognitive_binds"], [0.15260142943252294, "cognitive_binds"],
    [0.1535716798775756, "manual_binds"],
]


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
    """Counted exactly.  An assumption report and a KKT residual are computed
    only where they are read: at the bracket's two ends, which the bracket
    file reports on, not at the 25 grid points, the rejected first bests or
    the bisection probes."""
    builds = count_calls(monkeypatch, planner, "check_assumptions")
    residuals = count_calls(monkeypatch, planner, "foc_residuals")
    outcome = []
    run = lambda: outcome.append(run_sweep(tmp_path, CONFIGS / "threshold.cfg"))
    assert count_evals(run) == THRESHOLD_RUN_EVALS
    assert count_evals.iterations == THRESHOLD_RUN_ITERATIONS
    assert len(builds) == len(residuals) == 2
    rc, b = outcome[0]
    assert rc == 0 and b["converged"] and b["iterations"] == 5
    assert (b["lo"], b["hi"]) == THRESHOLD_RUN_BRACKET and b["trace"] == THRESHOLD_RUN_TRACE
    # inside the sweep's flip between its grid points 0.1468 and 0.1778
    grid = np.geomspace(0.1, 10.0, 25)
    assert grid[2] <= b["lo"] < b["hi"] <= grid[3]
    assert b["hi"] - b["lo"] <= 1e-3
    assert (b["lo_regime"], b["hi_regime"]) == ("cognitive_binds", "manual_binds")


# CI's other two sweeps of threshold.cfg, each with its threshold search: a
# 7-point linear grid, whose flip is bisected, and a 3-point log grid without
# a flip, whose search exits 5; and their exact residual evaluations.  When a
# failed prediction's ladder reached the predicted regime again, it reran that
# regime's warm Newton first: 9,231 and 199 evaluations, 4,142 of them twice
# over at a_AI = 0.4 in a Newton that does not converge.  When a line search
# gave up only after 40 halvings, they took 5,089 and 152: the failed Newtons
# at a_AI = 0.25 and 0.4 took 823 and 4,142 of the linear grid's.
LINEAR_RUN = ("--param", "a_AI", "--lo", "0.1", "--hi", "1", "--points", "7", "--threshold")
NO_FLIP_RUN = ("--param", "a_AI", "--lo", "1", "--hi", "10", "--points", "3", "--log",
               "--threshold")
LINEAR_RUN_EVALS = 352
NO_FLIP_RUN_EVALS = 85


@pytest.mark.parametrize("args, rc, evals", [(LINEAR_RUN, 0, LINEAR_RUN_EVALS),
                                             (NO_FLIP_RUN, 5, NO_FLIP_RUN_EVALS)],
                         ids=["linear_7", "no_flip_3"])
def test_residual_evaluations_of_the_other_ci_sweeps(tmp_path, count_evals, args, rc, evals):
    codes = []
    out = tmp_path / "sweep.csv"
    run = lambda: codes.append(cli.main(["sweep", str(CONFIGS / "threshold.cfg"), *args,
                                         "--out", str(out)]))
    assert count_evals(run) == evals
    assert codes == [rc]


@pytest.mark.parametrize("grid, fallbacks", [(np.linspace(0.1, 1.0, 7), (1, 2)),
                                             (np.geomspace(1.0, 10.0, 3), (2,))],
                         ids=["linear_7", "no_flip_3"])
def test_no_steady_solve_runs_the_same_newton_twice(monkeypatch, grid, fallbacks):
    """Each Newton run of one ``solve_steady_state`` differs from the others
    in its system's size or in its start.  At the ``fallbacks`` points (a_AI
    = 0.25 and 0.4 on the linear grid, 10 on the log one) the predicted
    regime fails and the first best and the ladder run; a rung that reaches
    the predicted regime again starts from the first best's vector alone."""
    runs = []  # each solve's Newton runs, keyed by (unknowns, start bytes)
    newton_solve = planner.newton_solve

    def keyed(f, x0, **kw):
        runs[-1].append((len(x0), x0.tobytes()))
        return newton_solve(f, x0, **kw)

    def solve(config, **kw):
        runs.append([])
        return solve_steady_state(config, **kw)

    monkeypatch.setattr(planner, "newton_solve", keyed)
    monkeypatch.setattr(importlib.import_module("aitax.sweep"), "solve_steady_state", solve)
    res = sweep(threshold_economy(), "a_AI", grid)
    assert all(p.ok for p in res.points) and len(runs) == len(grid)
    for i, keys in enumerate(runs):
        assert len(set(keys)) == len(keys), grid[i]
        # a one-constraint Newton (8 unknowns) first, then more: the prediction failed
        assert (keys[0][0] == 8 and len(keys) > 1) == (i in fallbacks), grid[i]


@pytest.mark.parametrize("economy", [regime_a_economy, regime_b_economy, threshold_economy])
def test_a_steady_solve_builds_one_solution(monkeypatch, economy):
    """The first best is judged from its multipliers and slacks; a rejected
    one is never built into a solution.  The returned solution computes its
    assumption report and KKT residual on first read, once."""
    builds = count_calls(monkeypatch, planner, "check_assumptions")
    residuals = count_calls(monkeypatch, planner, "foc_residuals")
    solution = solve_steady_state(economy())
    assert solution.regime is not Regime.NONE_BIND
    assert builds == [] and residuals == []
    for _ in range(2):
        assert solution.assumptions.all_pass and solution.foc_residual <= 1e-10
    assert len(builds) == len(residuals) == 1


def test_the_bracket_reports_its_ends_kkt_residuals_and_assumptions(tmp_path, monkeypatch):
    """The bracket file's four end keys are the values its two final end
    solutions give on read, the KKT residual at 17 digits.  On CI's linear
    run the two ends' residuals differ, so a swapped end shows."""
    searches = []
    search = cli.find_threshold

    def kept(*args, **kw):
        searches.append(search(*args, **kw))
        return searches[-1]

    monkeypatch.setattr(cli, "find_threshold", kept)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", str(CONFIGS / "threshold.cfg"), *LINEAR_RUN, "--out", str(out)]) == 0
    b = json.loads((tmp_path / "sweep.csv.bracket.json").read_text())["payload"]
    assert len(searches) == 1
    th = searches[0]
    assert th.lo_solution.foc_residual != th.hi_solution.foc_residual
    assert list(b)[-4:] == ["lo_foc_residual", "hi_foc_residual", "lo_assumptions",
                            "hi_assumptions"]
    for end, solution in (("lo", th.lo_solution), ("hi", th.hi_solution)):
        assert b[f"{end}_foc_residual"] == solution.foc_residual <= 1e-10
        assert b[f"{end}_assumptions"] == json.loads(dumps(assumption_payload(solution.assumptions)))
        assert b[f"{end}_assumptions"]["all_pass"]


@pytest.fixture(scope="module")
def cold_bracket():
    res = find_threshold(threshold_economy(), "a_AI", 0.1, 10.0)
    return res.lo, res.hi


def test_the_cold_search_bracket_is_pinned(cold_bracket):
    assert cold_bracket == (0.15256958007812502, 0.15317382812500002)


def plain_sweep(config, param: str, grid) -> list:
    """The sweep's points solved without prediction: each grid point warm
    from the last solved one."""
    points, warm = [], None
    for v in grid:
        try:
            warm = solve_steady_state(with_param(config, param, v), warm=warm)
        except SolverError as exc:
            points.append(_failure(v, exc))
            continue
        points.append(_metrics(v, warm))
    return points


# a solve is converged to a KKT residual of TOL_NEWTON = 1e-10; two starts
# may end at points this far apart in any CSV float
PREDICTION_ABS = 1e-9
FLOATS = ("tau_k", "tau_ai", "tau_y_c", "tau_y_m", "wage_ratio", "objective")


def test_prediction_does_not_change_the_bundled_sweep():
    """Predicted starts change the path to each grid point's solution, not
    the solution: same regimes, same wedge signs, floats within the bound."""
    grid = np.geomspace(0.1, 10.0, 25)
    got = sweep(threshold_economy(), "a_AI", grid).points
    want = plain_sweep(threshold_economy(), "a_AI", grid)
    assert [p.regime for p in got] == [p.regime for p in want]
    assert all(p.ok for p in got)
    for g, w in zip(got, want):
        for name in FLOATS:
            a, b = getattr(g, name), getattr(w, name)
            assert abs(a - b) <= PREDICTION_ABS, (g.value, name, a, b)
            if name.startswith("tau"):
                assert np.sign(a) == np.sign(b), (g.value, name, a, b)


def test_the_predictor_restarts_after_a_failed_point():
    """The corner economy's 0.1 end fails: the sweep's failures and regimes
    are the plain warm-started sweep's."""
    config = parse_config(CORNER_END_ECONOMY)
    grid = np.geomspace(0.1, 10.0, 25)
    got = sweep(config, "a_AI", grid).points
    want = plain_sweep(config, "a_AI", grid)
    assert [p.error for p in got] == [p.error for p in want]
    assert [p.regime for p in got] == [p.regime for p in want]
    assert not got[0].ok and all(p.ok for p in got[1:])


def test_a_failed_point_restarts_the_secant(monkeypatch):
    """After a failure the next two points start plainly from the last
    solution; only then does the secant resume, over consecutive points."""
    starts = []

    def failing(config, **kw):
        starts.append(kw)
        if len(starts) == 4:
            raise NoInteriorSolutionError("forced")
        return solve_steady_state(config, **kw)

    monkeypatch.setattr(importlib.import_module("aitax.sweep"), "solve_steady_state", failing)
    res = sweep(threshold_economy(), "a_AI", A_AI_GRID)
    assert [p.ok for p in res.points] == [True] * 3 + [False] + [True] * 3
    s = res.solutions
    assert starts[0] == {"warm": None} and starts[1] == {"warm": s[0]}
    assert starts[4] == {"warm": s[2]} and starts[5] == {"warm": s[4]}
    # a cold point keeps its first best; one warm in its regime has none
    assert s[0].first_best is not None and s[1].first_best is None
    for i in (2, 3, 6):
        # a secant start is one stationary point, predicted from the two before
        run = [(A_AI_GRID[j], s[j]) for j in (i - 2, i - 1)]
        assert starts[i] == {"warm": _secant(run, A_AI_GRID[i])} and len(starts[i]["warm"]) == 9


def test_prediction_keeps_the_flip_on_a_linear_grid():
    grid = np.linspace(0.1, 1.0, 7)
    res = sweep(threshold_economy(), "a_AI", grid)
    want = plain_sweep(threshold_economy(), "a_AI", grid)
    assert [p.regime for p in res.points] == [p.regime for p in want]
    assert res.threshold_bracket == (grid[0], grid[1])
    th = find_threshold(threshold_economy(), "a_AI", *res.threshold_bracket,
                        warm=res.solutions[:2])
    assert th.converged
    assert (th.lo_regime, th.hi_regime) == (Regime.COGNITIVE_BINDS, Regime.MANUAL_BINDS)


# a sweep point and a cold solve of its economy both stop at a KKT residual
# of TOL_NEWTON = 1e-10, from different starts; their allocations differ by
# that tolerance's start dependence, at most 1.1e-10 relative on the log grid
# below and 1.8e-9 on the linear one, with or without a first best per point
COLD_REL = 1e-8
ALLOCATION = ("c_c", "c_m", "l_c", "l_m", "k", "ai")


@pytest.mark.parametrize("grid, first_bests", [(np.geomspace(0.1, 10.0, 25), 2),
                                               (np.linspace(0.1, 1.0, 7), 3)],
                         ids=["log_25", "linear_7"])
def test_a_sweep_point_is_the_cold_answer(grid, first_bests):
    """Points solved in their predicted regime, without a first best, are
    what a cold solve of the same economy finds: the same regime, a KKT
    residual within tolerance, the allocation within COLD_REL.  Only the
    first point and those whose prediction fails solve a first best: the
    flip, and on the linear grid the point predicted across it."""
    res = sweep(threshold_economy(), "a_AI", grid)
    assert sum(s.first_best is not None for s in res.solutions) == first_bests
    for v, got in zip(grid, res.solutions):
        cold = solve_steady_state(with_param(threshold_economy(), "a_AI", v))
        assert got.regime is cold.regime, v
        assert got.foc_residual <= 1e-10, v
        for name in ALLOCATION:
            a, b = getattr(got.allocation, name), getattr(cold.allocation, name)
            assert np.all(np.abs(a - b) <= COLD_REL * np.abs(b)), (v, name, a, b)


# the z_c grid of ``unsolved_end_economy``'s sweep on [0.5, 4], and its two
# points that a first best cannot reach and the cognitive regime, predicted
# from the points before, solves
Z_C_GRID = np.geomspace(0.5, 4.0, 25)
NEWLY_SOLVED = (0.64841977732550482, 0.70710678118654757)


@pytest.fixture(scope="module")
def z_c_sweep(unsolved_end_economy):
    return sweep(parse_config(unsolved_end_economy), "z_c", Z_C_GRID)


def test_the_z_c_sweep_solves_its_five_lowest_points(z_c_sweep, unsolved_end_economy):
    """The five lowest points solve, all cognitive_binds; cold solves of the
    fourth and fifth refuse, as the sweep did when each point solved its
    first best first."""
    assert [p.ok for p in z_c_sweep.points] == [True] * 5 + [False] * 20
    assert {p.regime for p in z_c_sweep.points[:5]} == {"cognitive_binds"}
    assert z_c_sweep.values[3:5] == NEWLY_SOLVED
    for v in NEWLY_SOLVED:
        with pytest.raises(SolverError):
            solve_steady_state(with_param(parse_config(unsolved_end_economy), "z_c", v))


@pytest.mark.parametrize("value", NEWLY_SOLVED)
def test_a_newly_solved_point_is_a_strict_local_maximum(z_c_sweep, value):
    """A KKT point with admissible multipliers, whose Lagrangian Hessian is
    symmetric and negative definite on the constraints' null space
    (``tests/second_order.py``): a strict local maximum, not a saddle.  Its
    largest reduced eigenvalue reads about -0.24 and -0.23."""
    s = z_c_sweep.solutions[z_c_sweep.values.index(value)]
    assert s.regime is Regime.COGNITIVE_BINDS and s.foc_residual <= 1e-10
    assert s.multipliers.mu_c > 0.0 and s.multipliers.mu_m == 0.0 and s.slack_m >= -TOL_ICC
    eigenvalues, asymmetry = reduced_hessian_eigenvalues(s)
    assert asymmetry <= 1e-9
    assert eigenvalues[-1] < -1e-3 * np.max(np.abs(eigenvalues))


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
        dict(param="a_AI", lo=0.1, hi=1.0, tol_param=math.inf),
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
