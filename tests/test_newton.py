"""The grouped forward-difference Jacobian, its stacked residual calls and
the row fold of ``aitax.newton``."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from aitax import newton, planner
from aitax.configio import load_config
from aitax.economy import AgentKind, SolveMode

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ACTIVE_SETS = {
    "none": (),
    "cognitive": (AgentKind.COGNITIVE,),
    "both": (AgentKind.COGNITIVE, AgentKind.MANUAL),
}
# every active set a regime can impose
ALL_ACTIVE_SETS = {**ACTIVE_SETS, "manual": (AgentKind.MANUAL,)}

DESK = ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas")


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
    """A steady ``_Layout`` of the bundled config ``name``, its residual and
    the start its solved steady state gives."""
    config, _ = load_config(CONFIGS / f"{name}.cfg")
    layout = planner._Layout(active)
    return layout, planner._residual_fn(config, layout), layout.start(
        planner.solve_steady_state(config))


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


def test_groups_of_a_tridiagonal_pattern():
    """The reference coloring the layout's groups are checked against."""
    pattern = np.abs(np.subtract.outer(np.arange(7), np.arange(7))) <= 1
    color = greedy_coloring(pattern)
    assert partition(color) == [(0, 3, 6), (1, 4), (2, 5)]


def test_dense_pattern_gives_one_column_per_group():
    groups = newton.dense_groups(4, 3)
    assert groups.color.tolist() == [0, 1, 2]
    filled = np.zeros((4, 3), dtype=bool)
    filled[groups.rows, groups.owners] = True
    assert filled.all() and len(groups.rows) == 12


@pytest.mark.parametrize("horizon", [20, 160])
@pytest.mark.parametrize("name", sorted(ALL_ACTIVE_SETS))
def test_layout_groups_are_as_few_as_a_greedy_coloring(transition, name, horizon):
    """The groups derived from the periods (each kind's even and odd
    periods, one group per multiplier) share no row within a group, fill
    exactly the pattern's entries, and are as many as a greedy coloring in
    column order finds.  (Greedy puts lam_0, which touches period 0 only,
    with K_2, K_4, ...; any valid grouping gives the same Jacobian.)"""
    layout = path_layout(transition, ALL_ACTIVE_SETS[name], horizon)
    groups, fold = layout.jacobian_groups()
    pattern = path_pattern(layout)
    for cols in partition(groups.color):
        assert pattern[:, list(cols)].sum(axis=1).max() == 1
    assert groups.color.max() + 1 == greedy_coloring(pattern).max() + 1
    filled = np.zeros_like(pattern)
    filled[groups.rows, groups.owners] = True
    assert np.array_equal(filled, pattern) and len(groups.rows) == pattern.sum()
    assert fold.shape == (len(pattern),)


def test_newton_folds_expanded_rows():
    # x0 - x1 = 1 and (x0) + (x1 - 3) = 0, the second row given as two summed
    # pieces; with a pattern, f evaluates a stack of points, one per row
    def f(x):
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([x0 - x1 - 1.0, x0, x1 - 3.0], axis=-1)

    pattern = np.array([[True, True], [True, False], [False, True]])
    groups = newton.Groups(np.array([0, 1]), *np.nonzero(pattern))
    res = newton.newton_solve(f, np.zeros(2), groups=groups, fold=np.array([0, 1, 1]))
    assert res.converged
    np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("where", ["start", "line search"])
def test_a_residual_error_propagates(where):
    """Numpy arithmetic signals with inf or nan, which Newton rejects; an
    exception is a bug in the residual and is not taken for divergence."""
    x0 = np.zeros(2)

    def f(x):
        # the Jacobian's stack is 2-D; a 1-D point away from x0 is a trial step
        if x.ndim == 1 and (where == "start" or np.any(x != x0)):
            raise ValueError("shapes do not broadcast")
        return x - 1.0

    with pytest.raises(ValueError, match="broadcast"):
        newton.newton_solve(f, x0)


@pytest.mark.parametrize("name", sorted(ACTIVE_SETS))
def test_grouped_jacobian_is_the_column_by_column_one(transition, name):
    """Bitwise equal, with every entry outside the pattern exactly zero: a
    dependency missing from the pattern fails here instead of slowing Newton."""
    config, ss = transition
    active = ACTIVE_SETS[name]
    layout = path_layout(transition, active, config.horizon)
    f = planner._residual_fn(config, layout)
    x0 = layout.start(ss)
    rng = np.random.default_rng(sorted(ACTIVE_SETS).index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    r0 = f(x)
    groups, fold = layout.jacobian_groups()
    pattern = path_pattern(layout)
    assert pattern.shape == (len(r0), len(x)) and fold.shape == (len(r0),)

    dense = column_by_column(f, x, r0)
    assert not np.any(dense[~pattern])
    grouped = newton._jacobian(f, x, r0, groups)
    assert np.array_equal(grouped, dense)


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
    counts = [path_layout(transition, active, horizon).jacobian_groups()[0].color.max() + 1
              for horizon in (20, 160)]
    assert counts == [14 + len(active)] * 2


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", DESK)
def test_a_steady_stack_is_evaluated_row_by_row(name, active):
    """A steady residual on a stack of points, one (G,) array per unknown,
    gives each point its one-point rows, which are evaluated on scalars,
    to within rounding: array and scalar ``**`` can differ in the last bit
    (231 of these 1,280 rows differ, by 7.1e-15 at most)."""
    layout, f, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(DESK.index(name))
    stack = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, (8, len(x0))))
    rows = f(stack)
    assert rows.shape == (len(stack), len(x0))
    for g, point in enumerate(stack):
        np.testing.assert_allclose(rows[g], f(point), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("active", sorted(ALL_ACTIVE_SETS))
@pytest.mark.parametrize("name", DESK)
def test_dense_jacobian_is_the_column_by_column_one(name, active):
    """A steady state's Jacobian is one stacked call on one point per
    unknown.  Its differences of stacked and scalar rows carry their last-bit
    rounding divided by the step (1.8e-8 relative at most here), far below
    what moves Newton."""
    layout, f, x0 = steady_layout(name, ALL_ACTIVE_SETS[active])
    rng = np.random.default_rng(DESK.index(name))
    x = x0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(x0)))
    r0 = f(x)
    calls = []
    counted = lambda x: calls.append(np.shape(x)) or f(x)
    jac = newton._jacobian(counted, x, r0, newton.dense_groups(len(r0), len(x)))
    assert calls == [(len(x), len(x))]
    np.testing.assert_allclose(jac, column_by_column(f, x, r0), rtol=1e-7, atol=1e-7)
