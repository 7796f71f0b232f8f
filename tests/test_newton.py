"""The grouped forward-difference Jacobian and the row fold of ``aitax.newton``."""

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
    pattern = np.abs(np.subtract.outer(np.arange(7), np.arange(7))) <= 1
    groups = newton._groups(pattern)
    assert [list(cols) for cols, _, _ in groups] == [[0, 3, 6], [1, 4], [2, 5]]
    for cols, rows, owners in groups:
        assert np.array_equal(np.sort(rows), np.sort(np.flatnonzero(pattern[:, cols].any(axis=1))))
        assert set(owners) == set(cols)


def test_dense_pattern_gives_one_column_per_group():
    groups = newton._groups(np.ones((4, 3), dtype=bool))
    assert [list(cols) for cols, _, _ in groups] == [[0], [1], [2]]


def test_newton_folds_expanded_rows():
    # x0 - x1 = 1 and (x0) + (x1 - 3) = 0, the second row given as two summed
    # pieces; with a pattern, f evaluates a stack of points, one per row
    def f(x):
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([x0 - x1 - 1.0, x0, x1 - 3.0], axis=-1)

    pattern = np.array([[True, True], [True, False], [False, True]])
    res = newton.newton_solve(f, np.zeros(2), pattern=pattern, fold=np.array([0, 1, 1]))
    assert res.converged
    np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-12)


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
    pattern, fold = layout.sparsity()
    assert pattern.shape == (len(r0), len(x)) and fold.shape == (len(r0),)

    dense = column_by_column(f, x, r0)
    assert not np.any(dense[~pattern])
    grouped = newton._jacobian(f, x, r0, newton._groups(pattern))
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
    counts = [len(newton._groups(path_layout(transition, active, horizon).sparsity()[0]))
              for horizon in (20, 160)]
    assert counts == [14 + len(active)] * 2
