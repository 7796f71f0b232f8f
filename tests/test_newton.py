"""The exact Jacobian and LU step of a dense (steady-state) system, and the
grouped forward-difference Jacobian, its stacked residual calls, the row
fold and the band step of a path, in ``aitax.newton``."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from aitax import newton, planner
from aitax.configio import load_config
from aitax.economy import AgentKind, SolveMode, UtilityForm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ACTIVE_SETS = {
    "none": (),
    "cognitive": (AgentKind.COGNITIVE,),
    "both": (AgentKind.COGNITIVE, AgentKind.MANUAL),
}
# every active set a regime can impose
ALL_ACTIVE_SETS = {**ACTIVE_SETS, "manual": (AgentKind.MANUAL,)}

DESK = ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas")


def variants():
    """CRRA (gamma = 2) and government-spending (g = 0.05) variants of
    regime_a and regime_b: every bundled config has log utility and g = 0."""
    out = {}
    for name in ("regime_a", "regime_b"):
        config, _ = load_config(CONFIGS / f"{name}.cfg")
        crra = dataclasses.replace(config.prefs, u_form=UtilityForm.CRRA, gamma=2.0)
        out[f"{name}_crra2"] = dataclasses.replace(config, prefs=crra)
        out[f"{name}_g005"] = dataclasses.replace(config, g=0.05)
    return out


VARIANTS = variants()
# the steady states whose exact Jacobian is checked
STEADY = DESK + tuple(sorted(VARIANTS))


@pytest.fixture(scope="module")
def transition():
    """The ``regime_a_t20`` config and the steady state its path ends at."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    ss = planner.solve_steady_state(
        dataclasses.replace(config, mode=SolveMode.STEADY_STATE, horizon=None)
    )
    return config, ss


def path_layout(transition, active, horizon):
    config, ss = transition
    ends = (config.k0, config.ai0, float(ss.allocation.k[0]), float(ss.allocation.ai[0]))
    return planner._Layout(active, n=horizon + 1, ends=ends)


def steady_layout(name, active):
    """A steady ``_Layout`` of the bundled config ``name`` (or of a variant),
    its residual, its exact Jacobian and the start its solved steady state
    gives."""
    config = VARIANTS[name] if name in VARIANTS else load_config(CONFIGS / f"{name}.cfg")[0]
    layout = planner._Layout(active)
    return (layout, planner._residual_fn(config, layout), planner._jacobian_fn(config, layout),
            layout.start(planner.solve_steady_state(config)))


def path_pattern(layout):
    """Which rows each unknown of a path layout touches.  Every unknown and
    every expanded row has a period (a multiplier's is n): an unknown
    touches the rows of its own period and of the one before, and a
    multiplier every row."""
    n, active = layout.n, len(layout.active)
    per, inner = np.arange(n), np.arange(1, n)
    col = np.concatenate([per] * 4 + [inner] * 2 + [per, np.full(active, n)])
    row = np.concatenate([per] * 4 + [per[:-1]] * 2 + [per] * (1 + active))
    lag = col - row[:, None]
    return (lag == 0) | (lag == 1) | (col == n)


def greedy_coloring(pattern):
    """Curtis-Powell-Reid: each column, taken in order, joins the first
    group none of whose columns shares a row with it."""
    color = np.empty(pattern.shape[1], dtype=int)
    taken = []  # each group's rows
    for j, col in enumerate(pattern.T):
        for g, used in enumerate(taken):
            if not np.any(used & col):
                used |= col
                color[j] = g
                break
        else:
            color[j] = len(taken)
            taken.append(col.copy())
    return color


def partition(color):
    return sorted(tuple(np.flatnonzero(color == g)) for g in np.unique(color))


def column_by_column(f, x, r0):
    """One residual evaluation per unknown, every row read."""
    cols = []
    for j in range(len(x)):
        h = newton.JAC_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        cols.append((f(xp) - r0) / h)
    return np.column_stack(cols)


def unbanded(band, storage):
    """The m x m Newton matrix that band storage holds, read back from each
    entry's slot; every slot no entry fills must be empty."""
    m = len(band.color)
    rest = np.ones(band.size, dtype=bool)
    rest[band.entry_at] = False
    assert not np.any(storage[rest])
    dense = np.zeros((m, m))
    dense[band.fold[band.rows], band.owners] = storage[band.entry_at]
    return dense


def test_groups_of_a_tridiagonal_pattern():
    """The reference coloring the layout's groups are checked against."""
    pattern = np.abs(np.subtract.outer(np.arange(7), np.arange(7))) <= 1
    color = greedy_coloring(pattern)
    assert partition(color) == [(0, 3, 6), (1, 4), (2, 5)]


@pytest.mark.parametrize("horizon", [20, 160])
@pytest.mark.parametrize("name", sorted(ALL_ACTIVE_SETS))
def test_layout_groups_are_as_few_as_a_greedy_coloring(transition, name, horizon):
    """The groups derived from the periods (each kind's even and odd
    periods, one group per multiplier) share no row within a group, fill
    exactly the pattern's entries, and are as many as a greedy coloring in
    column order finds.  (Greedy puts lam_0, which touches period 0 only,
    with K_2, K_4, ...; any valid grouping gives the same Jacobian.)"""
    layout = path_layout(transition, ALL_ACTIVE_SETS[name], horizon)
    band = layout.band()
    pattern = path_pattern(layout)
    for cols in partition(band.color):
        assert pattern[:, list(cols)].sum(axis=1).max() == 1
    assert band.color.max() + 1 == greedy_coloring(pattern).max() + 1
    filled = np.zeros_like(pattern)
    filled[band.rows, band.owners] = True
    assert np.array_equal(filled, pattern) and len(band.rows) == pattern.sum()
    assert band.fold.shape == (len(pattern),)


def test_newton_folds_expanded_rows():
    # x0 - x1 = 1 and (x0) + (x1 - 3) = 0, the second row given as two summed
    # pieces, each unknown a block of its own; f evaluates a stack of
    # points, one per row
    def f(x):
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([x0 - x1 - 1.0, x0, x1 - 3.0], axis=-1)

    pattern = np.array([[True, True], [True, False], [False, True]])
    band = newton.Band(np.array([0, 1]), *np.nonzero(pattern), np.array([0, 1, 1]),
                       np.array([[0], [1]]))
    res = newton.newton_solve(f, np.zeros(2), band=band)
    assert res.converged
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


def test_a_system_takes_one_jacobian():
    """A dense system passes its exact Jacobian, a path its band; neither or
    both is a caller's bug."""
    f = lambda x: x - 1.0
    with pytest.raises(TypeError, match="exactly one"):
        newton.newton_solve(f, np.zeros(1))
    band = newton.Band(np.array([0]), np.array([0]), np.array([0]), np.array([0]),
                       np.array([[0], [-1]]))
    with pytest.raises(TypeError, match="exactly one"):
        newton.newton_solve(f, np.zeros(1), jac=lambda x: np.eye(1), band=band)


@pytest.mark.parametrize("name", sorted(ACTIVE_SETS))
def test_grouped_jacobian_is_the_column_by_column_one(transition, name):
    """Bitwise equal to the column-by-column difference folded into the
    Newton rows, entry by entry in the groups' order, with every entry
    outside the pattern exactly zero: a dependency missing from the pattern
    fails here instead of slowing Newton."""
    config, ss = transition
    active = ACTIVE_SETS[name]
    layout = path_layout(transition, active, config.horizon)
    f = planner._residual_fn(config, layout)
    x0 = layout.start(ss)
    rng = np.random.default_rng(sorted(ACTIVE_SETS).index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    r0 = f(x)
    band = layout.band()
    pattern = path_pattern(layout)
    assert pattern.shape == (len(r0), len(x)) and band.fold.shape == (len(r0),)

    dense = column_by_column(f, x, r0)
    assert not np.any(dense[~pattern])
    folded = np.zeros((len(x), len(x)))
    np.add.at(folded, (band.fold[band.rows], band.owners), dense[band.rows, band.owners])
    assert np.array_equal(unbanded(band, band.jacobian(f, x, r0)), folded)


@pytest.mark.parametrize("name", sorted(ACTIVE_SETS))
def test_a_stack_of_points_is_evaluated_row_by_row(transition, name):
    """The path residual on a stack of points gives each point the rows it
    gets alone, bit for bit: the stacked Jacobian rests on this."""
    config, ss = transition
    active = ACTIVE_SETS[name]
    layout = path_layout(transition, active, config.horizon)
    f = planner._residual_fn(config, layout)
    x0 = layout.start(ss)
    rng = np.random.default_rng(sorted(ACTIVE_SETS).index(name))
    stack = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, (5, len(x0))))
    rows = f(stack)
    assert rows.shape == (len(stack), len(f(x0)))
    for g, point in enumerate(stack):
        assert np.array_equal(rows[g], f(point))


@pytest.mark.parametrize("name", sorted(ACTIVE_SETS))
def test_group_count_does_not_grow_with_the_horizon(transition, name):
    active = ACTIVE_SETS[name]
    counts = [path_layout(transition, active, horizon).band().color.max() + 1
              for horizon in (20, 160)]
    assert counts == [14 + len(active)] * 2


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", DESK)
def test_a_steady_stack_is_evaluated_row_by_row(name, active):
    """A steady state's points, which a forward difference once evaluated
    as one stack, are evaluated one by one: from a perturbed start, Newton
    hands its residual one point per call and its exact Jacobian one point
    per iteration, and no call makes a stack."""
    layout, f, jac, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(DESK.index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    points, jacobians = [], []
    res = newton.newton_solve(lambda x: points.append(np.shape(x)) or f(x), x,
                              jac=lambda x: jacobians.append(np.shape(x)) or jac(x),
                              lower=layout.lower())
    assert res.converged
    assert set(points) == set(jacobians) == {(len(x),)}
    assert len(jacobians) == res.iterations and len(points) >= res.iterations + 1


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
    solve to a KKT point, in the regime of the config they vary."""
    solution = planner.solve_steady_state(VARIANTS[name])
    base = planner.solve_steady_state(load_config(CONFIGS / f"{name.rsplit('_', 1)[0]}.cfg")[0])
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
def test_a_path_step_is_the_dense_solve(transition, name, horizon):
    """Eliminating a path's period blocks and then its border solves the
    Newton matrix that the groups' entries assemble densely, to 1e-12
    relative, for every active set and for odd and even block counts."""
    config, ss = transition
    layout = path_layout(transition, ALL_ACTIVE_SETS[name], horizon)
    f = planner._residual_fn(config, layout)
    x0 = layout.start(ss)
    rng = np.random.default_rng(horizon)
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    r0 = f(x)
    band = layout.band()
    storage = band.jacobian(f, x, r0)
    jac = unbanded(band, storage)
    rhs = -np.bincount(band.fold, weights=r0, minlength=len(x))
    dense = np.linalg.solve(jac, rhs)
    assert np.max(np.abs(band.solve(storage, rhs) - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_an_entry_outside_the_band_is_refused():
    """Blocks whose rows reach past the next block would misplace entries."""
    rows, owners = np.divmod(np.arange(9), 3)
    with pytest.raises(ValueError, match="outside"):
        newton.Band(np.arange(3), rows, owners, np.arange(3), np.arange(3)[:, None])
