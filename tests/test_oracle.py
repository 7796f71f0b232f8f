import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aitax import (
    brute_force_steady,
    cli,
    cobb_douglas_economy,
    oracle,
    regime_a_economy,
    regime_b_economy,
    solve_steady_state,
    symmetric_economy,
    threshold_economy,
)
from aitax.configio import parse_config
from aitax.errors import (
    DomainError,
    EmptyFeasibleSetError,
    NoInteriorSolutionError,
    OracleIndeterminateError,
)
from aitax.oracle import AxisSpec, GridSpec, OracleResult, agreement, grid_bracketing
from aitax.planner import TOL_ICC, Regime
from aitax.preferences import nu_eval, u_eval
from aitax.production import evaluate

ROOT = Path(__file__).resolve().parent.parent
PRESETS = {
    "symmetric": symmetric_economy,
    "regime_a": regime_a_economy,
    "regime_b": regime_b_economy,
    "threshold": threshold_economy,
    "cobb_douglas": cobb_douglas_economy,
}


def small_grid(solution, points=4, frac=0.4):
    return grid_bracketing(solution, frac=frac, points=points)


def reference_brute_force(config, grid):
    """The search on the full 6-D product grid: every quantity is a
    (c_c, c_m, l_c, l_m, K, AI) array and each candidate set is a 6-D mask.

    ``brute_force_steady`` must agree with it bit for bit, tie-break included.
    """
    prefs, tech = config.prefs, config.tech
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z

    ax = [a.values() for a in grid.axes()]
    c_c = ax[0].reshape(-1, 1, 1, 1, 1, 1)
    c_m = ax[1].reshape(1, -1, 1, 1, 1, 1)
    l_c4, l_m4, k4, ai4 = np.meshgrid(ax[2], ax[3], ax[4], ax[5], indexing="ij")

    el_c4 = pi_c * z_c * l_c4
    el_m4 = pi_m * z_m * l_m4
    ev4 = evaluate(tech, el_c4, el_m4, k4, ai4)
    y4, w_c4, w_m4 = ev4.y, ev4.f_lc * z_c, ev4.f_lm * z_m

    shape4 = (1, 1) + l_c4.shape
    y = y4.reshape(shape4)
    spend4 = (tech.delta_k * k4 + tech.delta_ai * ai4 + config.g).reshape(shape4)
    feasible = pi_c * c_c + pi_m * c_m + spend4 <= y

    u_cc = u_eval(prefs, ax[0]).reshape(-1, 1, 1, 1, 1, 1)
    u_cm = u_eval(prefs, ax[1]).reshape(1, -1, 1, 1, 1, 1)
    nu_lc = nu_eval(prefs, ax[2]).reshape(1, 1, -1, 1, 1, 1)
    nu_lm = nu_eval(prefs, ax[3]).reshape(1, 1, 1, -1, 1, 1)
    nu_mimic_c = nu_eval(prefs, l_m4 * w_m4 / w_c4).reshape(shape4)
    nu_mimic_m = nu_eval(prefs, l_c4 * w_c4 / w_m4).reshape(shape4)

    slack_c = (u_cc - nu_lc) - (u_cm - nu_mimic_c)
    slack_m = (u_cm - nu_lm) - (u_cc - nu_mimic_m)
    floor = -TOL_ICC * (1.0 - prefs.beta)
    ok_c = slack_c >= floor
    ok_m = slack_m >= floor

    scale = 1.0 / (1.0 - prefs.beta)
    objective = (pi_c * (u_cc - nu_lc) + pi_m * (u_cm - nu_lm)) * scale

    if not np.any(feasible):
        raise EmptyFeasibleSetError("no grid point satisfies stationary feasibility")
    mask_all = feasible & ok_c & ok_m
    if not np.any(mask_all):
        raise EmptyFeasibleSetError(
            "no feasible grid point satisfies both incentive constraints"
        )

    def best(mask):
        masked = np.where(mask, objective, -np.inf)
        idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
        return float(masked[idx]), idx

    best_all, idx = best(mask_all)
    best_no_icc, _ = best(feasible)
    best_drop_c, _ = best(feasible & ok_m)
    best_drop_m, _ = best(feasible & ok_c)

    helps_c = best_drop_c > best_all
    helps_m = best_drop_m > best_all
    if best_no_icc == best_all:
        regime = Regime.NONE_BIND
    elif helps_c and not helps_m:
        regime = Regime.COGNITIVE_BINDS
    elif helps_m and not helps_c:
        regime = Regime.MANUAL_BINDS
    else:
        regime = Regime.BOTH_BIND

    h = grid.diagonal_step
    gap = oracle.LIPSCHITZ_ALLOWANCE * h
    flow_c = float(slack_c[idx])
    flow_m = float(slack_m[idx])
    binding = {
        Regime.NONE_BIND: (),
        Regime.COGNITIVE_BINDS: (flow_c,),
        Regime.MANUAL_BINDS: (flow_m,),
        Regime.BOTH_BIND: (flow_c, flow_m),
    }[regime]
    if any(abs(s) > gap for s in binding):
        raise OracleIndeterminateError(
            f"relaxation says {regime.value} but best-point flow slacks "
            f"({flow_c:.3e}, {flow_m:.3e}) exceed the grid allowance {gap:.3e}"
        )

    names = ("c_c", "c_m", "l_c", "l_m", "k", "ai")
    return OracleResult(
        objective=best_all,
        point={name: float(ax[i][idx[i]]) for i, name in enumerate(names)},
        regime=regime,
        slack_c=flow_c * scale,
        slack_m=flow_m * scale,
        objective_no_icc=best_no_icc,
        objective_drop_c=best_drop_c,
        objective_drop_m=best_drop_m,
        h=h,
        gap_allowance=gap,
        n_feasible=int(np.count_nonzero(feasible)),
        n_incentive_compatible=int(np.count_nonzero(mask_all)),
    )


def outcome(search, config, grid):
    """A search's result, or the type and message of the error it raised."""
    try:
        return search(config, grid)
    except (EmptyFeasibleSetError, OracleIndeterminateError) as exc:
        return type(exc), str(exc)


def assert_same_as_reference(config, grid):
    got = outcome(brute_force_steady, config, grid)
    want = outcome(reference_brute_force, config, grid)
    assert got == want
    # repr tells -0.0 from 0.0 and an int from a numpy integer
    assert repr(got) == repr(want)
    return got


@pytest.fixture(scope="module")
def preset_solutions():
    configs = {name: make() for name, make in PRESETS.items()}
    return {name: (cfg, solve_steady_state(cfg)) for name, cfg in configs.items()}


@pytest.mark.parametrize("frac", [0.05, 0.4, 0.8])
@pytest.mark.parametrize("points", [4, 6, 8])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_reduction_matches_the_full_product_on_presets(preset_solutions, name, points, frac):
    config, solution = preset_solutions[name]
    assert_same_as_reference(config, grid_bracketing(solution, frac=frac, points=points))


def _fuzz_draws(count=24):
    spec = importlib.util.spec_from_file_location("fuzz", ROOT / "bench" / "fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return fuzz.draw_economies(ROOT / "configs", 0, count)


def test_reduction_matches_the_full_product_on_fuzz_draws():
    """The seed-0 draws around the presets (``bench/fuzz.py``) that solve:
    20 of the 24 when this test was written."""
    compared = 0
    for _, text in _fuzz_draws():
        config = parse_config(text)
        try:
            solution = solve_steady_state(config)
        except NoInteriorSolutionError:
            continue
        assert_same_as_reference(config, grid_bracketing(solution, points=8))
        compared += 1
    assert compared >= 20


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


def assert_rescanner_agrees(cfg, grid):
    """Re-run the search with plain nested loops and compare point for point.

    This independently re-derives feasibility, both incentive slacks, the
    objective, and the first-maximum tie-break on a grid small enough to
    enumerate (4**6 = 4096 candidates).  A constraint holds where its flow
    slack is at least -TOL_ICC (1 - beta).
    """
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
        ev = evaluate(cfg.tech, el_c, el_m, k, ai)
        y = ev.y
        # consumption and stock spending summed apart, in the oracle's order:
        # the two orders of summation disagree on a point within rounding of
        # the resource constraint
        spend = ((pi_c * c_c + pi_m * c_m)
                 + (cfg.tech.delta_k * k + cfg.tech.delta_ai * ai + cfg.g))
        if spend > y:
            continue
        n_feas += 1
        w_c, w_m = ev.f_lc * z_c, ev.f_lm * z_m
        own_c = u_eval(prefs, c_c) - nu_eval(prefs, l_c)
        own_m = u_eval(prefs, c_m) - nu_eval(prefs, l_m)
        floor = -TOL_ICC * (1.0 - prefs.beta)
        if own_c - (u_eval(prefs, c_m) - nu_eval(prefs, l_m * w_m / w_c)) < floor:
            continue
        if own_m - (u_eval(prefs, c_c) - nu_eval(prefs, l_c * w_c / w_m)) < floor:
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


def test_pure_python_rescanner_agrees(preset_solutions):
    cfg, solution = preset_solutions["regime_a"]
    assert_rescanner_agrees(cfg, small_grid(solution, points=4))


def test_pure_python_rescanner_agrees_where_ties_decide(preset_solutions):
    # the two types are interchangeable: four grid points share the best
    # objective (the two consumption levels either way round, each at two
    # (K, AI) pairs), and the tie-break picks the first
    cfg, solution = preset_solutions["symmetric"]
    assert_rescanner_agrees(cfg, small_grid(solution, points=4))


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
    grid = GridSpec(rich, rich, small, small, small, small)
    with pytest.raises(EmptyFeasibleSetError, match="feasibility"):
        brute_force_steady(cfg, grid)
    assert_same_as_reference(cfg, grid)


def test_no_incentive_compatible_point():
    # feasible, but c_c >> c_m at equal wages violates the manual constraint
    cfg = symmetric_economy()
    c_hi = AxisSpec(lo=0.30, hi=0.35, points=3)
    c_lo = AxisSpec(lo=0.01, hi=0.02, points=3)
    l_ax = AxisSpec(lo=0.8, hi=1.0, points=3)
    k_ax = AxisSpec(lo=0.5, hi=0.9, points=3)
    grid = GridSpec(c_hi, c_lo, l_ax, l_ax, k_ax, k_ax)
    with pytest.raises(EmptyFeasibleSetError, match="incentive"):
        brute_force_steady(cfg, grid)
    assert_same_as_reference(cfg, grid)


def test_indeterminate_when_a_binding_slack_exceeds_the_allowance(
        preset_solutions, monkeypatch):
    """With no allowance, the binding cognitive constraint's nonzero flow
    slack at the best grid point cannot pass the cross-check."""
    cfg, solution = preset_solutions["regime_a"]
    grid = small_grid(solution, points=8)
    res = brute_force_steady(cfg, grid)
    assert res.regime is Regime.COGNITIVE_BINDS and res.slack_c != 0.0
    monkeypatch.setattr(oracle, "LIPSCHITZ_ALLOWANCE", 0.0)
    kind, message = assert_same_as_reference(cfg, grid)
    assert kind is OracleIndeterminateError
    scale = 1.0 / (1.0 - cfg.prefs.beta)
    assert f"({res.slack_c / scale:.3e}, {res.slack_m / scale:.3e})" in message


def test_oracle_verify_exits_6_when_indeterminate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "LIPSCHITZ_ALLOWANCE", 0.0)
    rc = cli.main(["oracle-verify", str(ROOT / "configs" / "regime_a.cfg"),
                   "--out", str(tmp_path / "oracle.json")])
    assert rc == 6
    assert "oracle error: relaxation says cognitive_binds" in capsys.readouterr().err


@pytest.mark.parametrize("points, limit_mb", [(8, 2), (16, 64)])
def test_memory_stays_bounded(preset_solutions, points, limit_mb):
    """The search never holds a 6-D array: one 16**6 float array alone is
    128 MB."""
    cfg, solution = preset_solutions["regime_a"]
    grid = small_grid(solution, points=points)
    tracemalloc.start()
    try:
        brute_force_steady(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20


def test_grid_bracketing_validation(regime_a_solution):
    with pytest.raises(DomainError):
        grid_bracketing(regime_a_solution, frac=1.5)
    grid = grid_bracketing(regime_a_solution, frac=0.25, points=5)
    a = regime_a_solution.allocation
    assert grid.k.lo == pytest.approx(0.75 * float(a.k[0]))
    assert grid.k.hi == pytest.approx(1.25 * float(a.k[0]))
