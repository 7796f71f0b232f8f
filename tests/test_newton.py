"""The exact Jacobians of a steady state and of a path, the LU step of a
dense system, the band step of a path and the line search's two stops, in
``aitax.newton``."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from aitax import newton, planner
from aitax.configio import load_config, parse_config
from aitax.economy import AgentKind, SolveMode, UtilityForm
from aitax.errors import SolverError
import reference_jacobian

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ACTIVE_SETS = {
    "none": (),
    "cognitive": (AgentKind.COGNITIVE,),
    "both": (AgentKind.COGNITIVE, AgentKind.MANUAL),
}
# every active set a regime can impose
ALL_ACTIVE_SETS = {**ACTIVE_SETS, "manual": (AgentKind.MANUAL,)}

DESK = ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas")
# the desks whose two types are identical, so that their two incentive
# constraints are one and the both-bind Newton matrix is singular
SINGULAR_BOTH = ("symmetric", "cobb_douglas")
# the step of the reference forward difference, relative to max(1, |x_j|)
STEP = 1e-7


def variants():
    """CRRA (gamma = 2) and government-spending (g = 0.05) variants of
    regime_a and regime_b, and of regime_a_t20's T = 20 path: every bundled
    config has log utility and g = 0."""
    out = {}
    for name in ("regime_a", "regime_b", "regime_a_t20"):
        config, _ = load_config(CONFIGS / f"{name}.cfg")
        crra = dataclasses.replace(config.prefs, u_form=UtilityForm.CRRA, gamma=2.0)
        out[f"{name}_crra2"] = dataclasses.replace(config, prefs=crra)
        out[f"{name}_g005"] = dataclasses.replace(config, g=0.05)
    return out


VARIANTS = variants()
# the steady states whose exact Jacobian is checked
STEADY = DESK + tuple(sorted(name for name, config in VARIANTS.items() if config.horizon is None))
# the paths whose exact Jacobian is checked: regime_a_t20 and its variants
PATHS = ("regime_a_t20", "regime_a_t20_crra2", "regime_a_t20_g005")


def config_of(name):
    return VARIANTS[name] if name in VARIANTS else load_config(CONFIGS / f"{name}.cfg")[0]


def solve(config):
    if config.mode is SolveMode.FINITE_HORIZON:
        return planner.solve_finite_horizon(config)
    return planner.solve_steady_state(config)


@pytest.fixture(scope="module")
def paths():
    """Each path config of ``PATHS`` and the steady state its path ends at."""
    out = {}
    for name in PATHS:
        config = config_of(name)
        out[name] = config, planner.solve_steady_state(
            dataclasses.replace(config, mode=SolveMode.STEADY_STATE, horizon=None))
    return out


def path_system(paths, name, active, horizon):
    """A path ``_Layout`` of ``name`` at ``horizon``, its residual, its exact
    Jacobian and a point within 5% of the start its steady state gives,
    drawn with the horizon as the seed."""
    config, ss = paths[name]
    ends = (config.k0, config.ai0, float(ss.allocation.k[0]), float(ss.allocation.ai[0]))
    layout = planner._Layout(active, n=horizon + 1, ends=ends)
    x0 = layout.start(planner._steady_point(ss))
    rng = np.random.default_rng(horizon)
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    return layout, planner._residual_fn(config, layout), planner._jacobian_fn(config, layout), x


def steady_layout(name, active):
    """A steady ``_Layout`` of the bundled config ``name`` (or of a variant),
    its residual, its exact Jacobian and the start its solved steady state
    gives."""
    config = config_of(name)
    layout = planner._Layout(active)
    return (layout, planner._residual_fn(config, layout), planner._jacobian_fn(config, layout),
            layout.start(planner._steady_point(planner.solve_steady_state(config))))


def path_pattern(layout):
    """Which unknowns each Newton row of a path layout can depend on.
    Every unknown and every row has a period (the Euler rows linking t to
    t + 1 have period t, the slack rows and multipliers n): a row depends
    on the unknowns of its own period and of the next, and the slack rows
    and multipliers reach every period."""
    n, active = layout.n, len(layout.active)
    per, inner = np.arange(n), np.arange(1, n)
    col = np.concatenate([per] * 4 + [inner] * 2 + [per, np.full(active, n)])
    row = np.concatenate([per] * 4 + [per[:-1]] * 2 + [per, np.full(active, n)])
    lag = col - row[:, None]
    return (lag == 0) | (lag == 1) | (col == n) | (row[:, None] == n)


def column_by_column(f, x, r0):
    """The reference Jacobian: one forward difference per unknown, every
    row read."""
    cols = []
    for j in range(len(x)):
        h = STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        cols.append((f(xp) - r0) / h)
    return np.column_stack(cols)


def unbanded(band, storage):
    """The m x m Newton matrix that band storage holds, read back from each
    entry's slot; every slot no entry fills must be empty."""
    m = len(band.place)
    rest = np.ones(band.size, dtype=bool)
    rest[band.entry_at] = False
    assert not np.any(storage[rest])
    dense = np.zeros((m, m))
    dense[band.rows, band.owners] = storage[band.entry_at]
    return dense


def test_a_banded_system_steps_by_its_blocks():
    # x0 - x1 = 1 and x0 + x1 = 3, each unknown a block of its own, with its
    # Jacobian in band storage
    band = newton.Band(2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([[0], [1]]))

    def jac(x):
        storage = np.zeros(band.size)
        storage[band.entry_at] = 1.0, -1.0, 1.0, 1.0
        return storage

    f = lambda x: np.array([x[0] - x[1] - 1.0, x[0] + x[1] - 3.0])
    res = newton.newton_solve(f, np.zeros(2), jac=jac, band=band)
    assert res.converged and res.iterations == 1
    np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("where", ["start", "line search"])
def test_a_residual_error_propagates(where):
    """Numpy arithmetic signals with inf or nan, which Newton rejects; an
    exception is a bug in the residual and is not taken for divergence."""
    x0 = np.zeros(2)

    def f(x):
        # a point away from x0 is a trial step
        if where == "start" or np.any(x != x0):
            raise ValueError("shapes do not broadcast")
        return x - 1.0

    with pytest.raises(ValueError, match="broadcast"):
        newton.newton_solve(f, x0, jac=lambda x: np.eye(2))


def traced(f, jac):
    """``f`` and ``jac`` wrapped to log each call, "f" or "j", in order, and
    the log."""
    calls = []
    return (lambda x: calls.append("f") or f(x)), (lambda x: calls.append("j") or jac(x)), calls


def line_searches(calls) -> list:
    """The trials of each line search in a traced run: the residual calls
    after each Jacobian call."""
    return [len(trials) for trials in "".join(calls).split("j")[1:]]


def test_a_crawl_stops_after_max_halvings_rejected_trials():
    """x^2 + 1 has no real root: its floor, 1 at x = 0, is where its
    Jacobian vanishes.  From x = 0.5 each Newton step overshoots further,
    so each accepted step needs more halvings than the last (1, then 5),
    until a line search rejects all 12 of its trials and the run stops."""
    f, jac, calls = traced(lambda x: x**2 + 1.0, lambda x: np.diag(2.0 * x))
    res = newton.newton_solve(f, np.array([0.5]), jac=jac)
    assert not res.converged and res.stop is newton.Stop.HALVINGS and res.iterations == 3
    assert line_searches(calls) == [2, 6, 12] and newton.MAX_HALVINGS == 12


def test_a_step_below_rounding_stops_at_the_first_halved_trial():
    """1e6 (x^2 - 2) has its root at sqrt(2), which no float holds: at the
    float nearest it the residual is 4.4e-10, above the tolerance, and the
    Newton step is 1.6e-16, under one ulp.  The full step is tried and
    rejected; half of it moves x by less than 4 eps of max(|x|, 1), so the
    run stops without evaluating it."""
    f, jac, calls = traced(lambda x: 1e6 * (x * x - 2.0), lambda x: np.diag(2e6 * x))
    res = newton.newton_solve(f, np.array([math.sqrt(2.0)]), jac=jac)
    assert not res.converged and res.stop is newton.Stop.ROUNDING and res.iterations == 1
    assert res.residual_norm > 1e-10
    assert calls == ["f", "j", "f"]


def test_no_accepted_step_comes_near_the_halving_cap(monkeypatch, bench_draws):
    """Every accepted step of every converged Newton, the AI-corner
    checks' among them, needs at most 10 halvings on the five desks,
    regime_a_t20 and the bench's 24 fuzz draws (4 at most, measured; 10 at
    most on the 1,300 draws of the seed-0 and wider fuzz samples), so the
    cap of 12 trials ends only runs that fail.  Halvings are counted from
    outside: the residual calls after each Jacobian call, less the
    accepted one."""
    searches = []
    newton_solve = planner.newton_solve

    def counted(f, x0, *, jac, **kw):
        f, jac, calls = traced(f, jac)
        res = newton_solve(f, x0, jac=jac, **kw)
        if res.converged:
            searches.extend(line_searches(calls))
        return res

    monkeypatch.setattr(planner, "newton_solve", counted)
    for name in DESK + ("regime_a_t20",):
        solve(config_of(name))
    for text in bench_draws.values():
        try:
            planner.solve_steady_state(parse_config(text))
        except SolverError:
            pass
    assert max(searches) - 1 <= 10 < newton.MAX_HALVINGS


@pytest.mark.parametrize("horizon", [1, 2, 20])
@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", PATHS)
def test_path_jacobian_is_the_column_by_column_one(paths, name, active, horizon):
    """A path's exact Jacobian, read back from band storage, matches the
    column-by-column forward difference at a perturbed point to within the
    difference's own truncation error (measured: 4.9e-7 of max(1, |entry|)
    at most), on regime_a_t20 and its CRRA and spending variants, for every
    active set and one, two and twenty periods.  The band stores every
    entry the difference finds, and no more than the pattern allows: a
    dependency the band misses fails here."""
    layout, f, jac, x = path_system(paths, name, ALL_ACTIVE_SETS[active], horizon)
    band = layout.band
    filled = np.zeros((len(x), len(x)), dtype=bool)
    filled[band.rows, band.owners] = True
    assert not np.any(filled & ~path_pattern(layout))
    reference = column_by_column(f, x, f(x))
    assert not np.any(reference[~filled])
    np.testing.assert_allclose(unbanded(band, jac(x)), reference, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", DESK)
def test_a_steady_stack_is_evaluated_row_by_row(name, active):
    """A steady state's points are evaluated one by one: from a perturbed
    start, Newton hands its residual one point per call and its exact
    Jacobian one point per iteration, and no call makes a stack.

    Newton must converge wherever the Newton matrix is nonsingular.  Where
    it is singular (both constraints on the desks of ``SINGULAR_BOTH``),
    whether it converges from a perturbed start is luck: on cobb_douglas
    it does from 16 of 100 seeded 5% perturbations, and which ones moves
    with the residual's last bits."""
    layout, f, jac, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(DESK.index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    points, jacobians = [], []
    res = newton.newton_solve(lambda x: points.append(np.shape(x)) or f(x), x,
                              jac=lambda x: jacobians.append(np.shape(x)) or jac(x),
                              lower=layout.lower())
    assert res.converged or (active == "both" and name in SINGULAR_BOTH)
    assert set(points) == set(jacobians) == {(len(x),)}
    # each Jacobian at a point the residual evaluated; a converged solve
    # also evaluated the point it stops at
    assert len(jacobians) == res.iterations and len(points) >= res.iterations + res.converged


@pytest.mark.parametrize("name", DESK)
def test_which_desks_both_bind_newton_matrices_are_singular(name):
    """With both constraints imposed, the Newton matrix at the start a
    desk's solution gives is singular on the two desks whose types are
    identical, so that their two incentive constraints are one (condition
    numbers 3.8e18 on symmetric and 7.4e19 on cobb_douglas), and well
    conditioned on the other three (5.4e3 at most).  From 5% perturbations
    of that start, Newton converges on cobb_douglas for 16 of 100 seeds
    (symmetric: 100 of 100), so
    ``test_a_steady_stack_is_evaluated_row_by_row`` requires convergence
    with both constraints only on the other three."""
    layout, _, jac, x0 = steady_layout(name, ALL_ACTIVE_SETS["both"])
    singular = np.linalg.svd(jac(x0), compute_uv=False)
    if name in SINGULAR_BOTH:
        assert singular[0] > 1e15 * singular[-1]
    else:
        assert singular[0] < 1e4 * singular[-1]


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", STEADY)
def test_dense_jacobian_is_the_column_by_column_one(name, active):
    """A steady state's exact Jacobian matches the column-by-column forward
    difference at a perturbed point to within the difference's own
    truncation error (4.7e-7 of max(1, |entry|) at most here), on the
    desks and on the CRRA and spending variants."""
    layout, f, jac, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(STEADY.index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    np.testing.assert_allclose(jac(x), column_by_column(f, x, f(x)), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_crra_and_spending_variants_solve(name):
    """u'' has a CRRA branch and feasibility a spending term: the variants
    solve to a KKT point, steady states and T = 20 paths alike, in the
    regime of the config they vary."""
    solution = solve(VARIANTS[name])
    base = solve(config_of(name.rsplit("_", 1)[0]))
    assert solution.foc_residual <= 1e-10
    assert solution.regime is base.regime


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", DESK)
def test_a_dense_step_is_one_lu_solve(name, active):
    """A dense system's Newton step is the very ``np.linalg.solve`` of its
    exact m x m Jacobian, bit for bit: one Newton iteration moves x by that
    step or by the line search's halving of it."""
    layout, f, jac, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(DESK.index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    dx = np.linalg.solve(jac(x), -f(x))
    moved = newton.newton_solve(f, x, max_iter=1, jac=jac).x
    assert any(np.array_equal(moved, x + 0.5**h * dx) for h in range(newton.MAX_HALVINGS))


@pytest.mark.parametrize("horizon", [1, 2, 20, 160])
@pytest.mark.parametrize("name", sorted(ALL_ACTIVE_SETS))
def test_a_path_step_is_the_dense_solve(paths, name, horizon):
    """Eliminating a path's period blocks and then its border solves the
    Newton matrix that its exact Jacobian's entries assemble densely, to
    1e-12 relative, for every active set and for odd and even block
    counts."""
    layout, f, jac, x = path_system(paths, "regime_a_t20", ALL_ACTIVE_SETS[name], horizon)
    storage = jac(x)
    rhs = -f(x)
    dense = np.linalg.solve(unbanded(layout.band, storage), rhs)
    step = layout.band.solve(storage, rhs)
    assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_an_entry_outside_the_band_is_refused():
    """Blocks whose rows reach past the next block would misplace entries."""
    rows, owners = np.divmod(np.arange(9), 3)
    with pytest.raises(ValueError, match="outside"):
        newton.Band(3, rows, owners, np.arange(3)[:, None])


def same_bits(a, b) -> bool:
    """Whether two kernel values are equal bit for bit: floats and arrays by
    their bytes, tuples and dataclasses entry by entry, anything else by
    identity."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, (float, np.ndarray)):
        return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return a is b


@pytest.mark.parametrize("name", DESK + tuple(sorted(VARIANTS)) + ("regime_a_t20",))
def test_the_kept_pass_is_exact(monkeypatch, name):
    """At every Newton iterate of a solve, the Jacobian read from the pass
    the residual kept is bit for bit the one a fresh evaluation gives, in
    band storage for a path, and every converged vector's attempt is
    field by field the one ``_judge`` makes afresh."""
    jacobian_fn, judge = planner._jacobian_fn, planner._judge
    jacobians, attempts = [], []

    def checked_jacobian_fn(config, layout, last=None):
        kept, fresh = jacobian_fn(config, layout, last), jacobian_fn(config, layout)

        def jac(x):
            matrix = kept(x)
            jacobians.append(last is not None and matrix.tobytes() == fresh(x).tobytes())
            return matrix
        return jac

    def checked_judge(config, layout, x, last=None):
        att = judge(config, layout, x, last)
        attempts.append(last is not None and same_bits(att, judge(config, layout, x)))
        return att

    monkeypatch.setattr(planner, "_jacobian_fn", checked_jacobian_fn)
    monkeypatch.setattr(planner, "_judge", checked_judge)
    solve(config_of(name))
    assert jacobians and all(jacobians)
    assert attempts and all(attempts)


@pytest.mark.parametrize("kind", ["steady", "path"])
def test_a_jacobian_away_from_the_kept_pass_evaluates_afresh(paths, kind):
    """A Jacobian at a point other than the one the residual last
    evaluated, or at that vector changed in place since, evaluates the
    point afresh and is exact."""
    if kind == "steady":
        layout, _, _, x = steady_layout("regime_a", ACTIVE_SETS["cognitive"])
        config = config_of("regime_a")
    else:
        layout, _, _, x = path_system(paths, "regime_a_t20", ACTIVE_SETS["cognitive"], 20)
        config = config_of("regime_a_t20")
    last = planner._LastPass()
    f, jac = planner._residual_fn(config, layout, last), planner._jacobian_fn(config, layout, last)
    fresh = planner._jacobian_fn(config, layout)
    y = x * 1.01
    assert fresh(y).tobytes() != fresh(x).tobytes()
    f(x)
    assert jac(y).tobytes() == fresh(y).tobytes()
    assert jac(x).tobytes() == fresh(x).tobytes()
    x[2] *= 1.01
    assert jac(x).tobytes() == fresh(x).tobytes()


def test_a_jacobian_that_overflows_is_non_finite():
    """With CRRA gamma = 30 at c_c = 1e-10, u'(c_c) = 1e300 leaves the
    residual finite while u''(c_c) overflows a float: the Jacobian reads
    as non-finite, which Newton refuses to step on, and raises nothing."""
    config = config_of("regime_a")
    config = dataclasses.replace(config, prefs=dataclasses.replace(
        config.prefs, u_form=UtilityForm.CRRA, gamma=30.0))
    layout = planner._Layout(())
    x = layout.start((1e-10, 1.0, 0.3, 0.3, 1.0, 1.0, 1.0, 0.0, 0.0))
    assert np.all(np.isfinite(planner._residual_fn(config, layout)(x)))
    assert not np.any(np.isfinite(planner._jacobian_fn(config, layout)(x)))


def ulps(a, b):
    """Each entry's distance between two arrays in units in the last place
    of the larger magnitude; 0 where both are equal."""
    gap = np.abs(a - b)
    return np.where(gap == 0.0, 0.0, gap / np.spacing(np.maximum(np.abs(a), np.abs(b))))


# the steady-state and path Jacobians against their matrix-form reference:
# at most this many ulps apart per entry (measured: 0, bit for bit)
REFERENCE_ULPS = 2


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", STEADY)
def test_steady_jacobian_is_the_matrix_form_one(name, active):
    """The entry expressions give the Jacobian the matrix-form reference
    (``tests/reference_jacobian.py``) gives, at the start a solved steady
    state gives and at a perturbed point: bit for bit on threshold.cfg,
    whose solves the headline threshold reads, and within REFERENCE_ULPS
    per entry on the other desks and on the CRRA and spending variants."""
    config = config_of(name)
    layout, _, jac, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(STEADY.index(name))
    for x in (x0, x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))):
        got, want = jac(x), reference_jacobian.jacobian(config, layout, x)
        if name == "threshold":
            assert got.tobytes() == want.tobytes()
        assert np.max(ulps(got, want)) <= REFERENCE_ULPS


@pytest.mark.parametrize("horizon", [1, 2, 20])
@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", PATHS)
def test_path_jacobian_is_the_matrix_form_one(paths, name, active, horizon):
    """A path's entries, read back from band storage, are the matrix-form
    reference's within REFERENCE_ULPS per entry, for every active set,
    on regime_a_t20 and its CRRA and spending variants."""
    layout, _, jac, x = path_system(paths, name, ALL_ACTIVE_SETS[active], horizon)
    got = unbanded(layout.band, jac(x))
    assert np.max(ulps(got, reference_jacobian.jacobian(paths[name][0], layout, x))) <= REFERENCE_ULPS


def one_element_arrays(value):
    """A kernel value with every float replaced by a 1-element array:
    floats, tuples and dataclasses entry by entry."""
    if dataclasses.is_dataclass(value):
        return type(value)(*(one_element_arrays(getattr(value, f.name))
                             for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return tuple(map(one_element_arrays, value))
    return np.array([value])


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", STEADY)
def test_jacobian_entries_are_one_set_of_formulas(name, active):
    """The entries a steady state evaluates on Python floats are bit for
    bit the ones the same expressions give on 1-element arrays, a path's
    number type, from the same chain terms at a perturbed point.  Only a
    power could round apart on the two (libm on floats, numpy's vector
    loops on arrays); none does at these points."""
    config = config_of(name)
    layout, _, _, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(STEADY.index(name))
    point = layout.unpack(x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0))))
    c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m = point
    ch = planner._chain_terms(config, l_c, l_m, k, ai, mu_c, mu_m)
    on_floats = planner._jacobian_entries(config, layout.active, False, *point, ch)
    on_arrays = planner._jacobian_entries(config, layout.active, False,
                                          *one_element_arrays(point), one_element_arrays(ch))
    assert len(on_floats) == len(on_arrays) == len(layout.entries)
    assert {type(v) for v in on_floats} == {float}
    assert (np.array(on_floats).tobytes()
            == np.array([np.reshape(v, -1)[0] for v in on_arrays]).tobytes())


@pytest.mark.parametrize("horizon", [20, 640])
@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
def test_the_band_stores_only_entries_that_can_be_nonzero(paths, active, horizon):
    """A path's band stores 34 entries per period plus 12 per active
    multiplier (its column and its slack's row), less 20 + 4 per
    multiplier at the two ends, where K_0, K_n and the last period's Euler
    rows do not exist: 942 at T = 20 and 29,462 at T = 640 with one
    constraint, where storing each period's whole 7 x 7 next-period block
    took 2,271 and 71,711."""
    layout = path_system(paths, "regime_a_t20", ALL_ACTIVE_SETS[active], horizon)[0]
    a, n = len(layout.active), layout.n
    assert len(layout.entries) == 34 + 12 * a
    assert len(layout.band.rows) == (34 + 12 * a) * n - (20 + 4 * a)
