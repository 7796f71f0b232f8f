"""Damped Newton iteration for square nonlinear systems.

The Jacobian is a forward difference whose columns are grouped
(Curtis, Powell & Reid 1974): given which residual rows each unknown may
touch, unknowns that share no row are perturbed together, so one perturbed
point fills a whole group.  The groups' points are then evaluated as one
stack, a (groups x unknowns) array, in a single residual call: with a
pattern, the residual must take such a stack and return one row of
residuals per point, each exactly as it would for that point alone.  The
per-call overhead of a small residual, not its arithmetic, is what a
grouped Jacobian costs.  Without a pattern the Jacobian stays dense, one
call per column at one point each: a residual on scalars (a steady
state's) can round differently on arrays, and stacking its few columns
saves little.  The residual may be *expanded*: it returns
more rows than there are unknowns, and an index array folds them, by
summing, into the Newton rows, both for the residual and for the Jacobian.
That lets a dense row that is a sum of local terms keep a sparse pattern.

Steps are halved on the residual max-norm, and a fraction-to-boundary rule
keeps selected components above hard lower bounds.  Everything is
deterministic: no randomness, fixed iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_ITER = 200
MAX_HALVINGS = 40
JAC_STEP = 1e-7


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def _groups(pattern: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Column groups of a boolean Jacobian pattern (rows x unknowns).

    Columns are taken in order, and each joins the first group none of
    whose columns touches one of its rows.  Each group is (columns, rows,
    owners): the columns perturbed together and, for every entry the
    group's evaluation fills, its row and its column.  A dense pattern puts
    every column in a group of its own.
    """
    members, taken = [], []  # each group's columns and the rows they touch
    for j, col in enumerate(pattern.T):
        touch = np.flatnonzero(col).tolist()
        for cols, used in zip(members, taken):
            if used.isdisjoint(touch):
                cols.append(j)
                used.update(touch)
                break
        else:
            members.append([j])
            taken.append(set(touch))
    out = []
    for cols in map(np.array, members):
        rows, k = np.nonzero(pattern[:, cols])
        out.append((cols, rows, cols[k]))
    return out


def _jacobian(f: Callable, x: np.ndarray, r0: np.ndarray, groups: list | None) -> np.ndarray:
    """Forward-difference Jacobian of ``f`` at x.

    Without groups, every column is its own evaluation of ``f`` at one
    point.  With groups, each group's perturbed point is one row of a
    stack that ``f`` evaluates in a single call; each column reads its
    entries from its own rows of its group's residual, and entries
    outside the pattern stay zero.  Each column has its own step.
    """
    steps = JAC_STEP * np.maximum(1.0, np.abs(x))
    if groups is None:
        jac = np.empty((len(r0), len(x)))
        for j in range(len(x)):
            xp = x.copy()
            xp[j] += steps[j]
            jac[:, j] = (np.asarray(f(xp), dtype=float) - r0) / steps[j]
        return jac
    stack = np.tile(x, (len(groups), 1))
    for point, (cols, _, _) in zip(stack, groups):
        point[cols] += steps[cols]
    r = np.asarray(f(stack), dtype=float)
    jac = np.zeros((len(r0), len(x)))
    for r_g, (_, rows, owners) in zip(r, groups):
        jac[rows, owners] = (r_g[rows] - r0[rows]) / steps[owners]
    return jac


def newton_solve(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = MAX_ITER,
    lower: np.ndarray | None = None,
    pattern: np.ndarray | None = None,
    fold: np.ndarray | None = None,
) -> NewtonResult:
    """Solve f(x) = 0 by damped Newton from x0.

    ``lower`` gives hard lower bounds per component (-inf where free); steps
    are shortened so iterates keep a 0.5% distance-to-bound margin.
    ``fold`` maps each row ``f`` returns to the Newton row it is summed
    into (default: one row per unknown), and ``pattern`` says which of
    those rows each unknown may touch (default: all of them).

    Given ``pattern``, ``f`` must also accept a stack of points, a 2-D
    array with one point per row, and return their residuals row by row,
    each bitwise equal to ``f`` at that point alone: each Jacobian is then
    one call of ``f`` on a stack of one point per column group.  Without
    it, ``f`` is only ever called on one point, once per column for each
    Jacobian.
    """
    x = np.asarray(x0, dtype=float).copy()
    m = len(x)
    lo = np.full_like(x, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    fold = np.arange(m) if fold is None else np.asarray(fold)
    groups = None if pattern is None else _groups(pattern)
    # flat index of each expanded Jacobian entry in the folded m x m one
    cells = (fold[:, None] * m + np.arange(m)).ravel()

    def residual(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The expanded rows and the folded Newton rows at x."""
        expanded = np.asarray(f(x), dtype=float)
        return expanded, np.bincount(fold, weights=expanded, minlength=m)

    try:
        r_exp, r = residual(x)
    except (FloatingPointError, ZeroDivisionError, OverflowError, ValueError):
        return NewtonResult(x, np.inf, False, 0)
    if not np.all(np.isfinite(r)):
        return NewtonResult(x, np.inf, False, 0)
    norm = float(np.max(np.abs(r)))

    for it in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(x, norm, True, it - 1)
        jac_exp = _jacobian(f, x, r_exp, groups)
        jac = np.bincount(cells, weights=jac_exp.ravel(), minlength=m * m).reshape(m, m)
        if not np.all(np.isfinite(jac)):
            return NewtonResult(x, norm, False, it)
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return NewtonResult(x, norm, False, it)

        # fraction-to-boundary: keep bounded components strictly inside
        alpha = 1.0
        bounded = np.isfinite(lo) & (dx < 0.0)
        if np.any(bounded):
            gap = x[bounded] - lo[bounded]
            alpha = min(1.0, float(np.min(-0.995 * gap / dx[bounded])))
        if alpha <= 0.0:
            return NewtonResult(x, norm, False, it)

        improved = False
        for _ in range(MAX_HALVINGS):
            x_try = x + alpha * dx
            with np.errstate(all="ignore"):
                try:
                    r_exp_try, r_try = residual(x_try)
                except (FloatingPointError, ZeroDivisionError, OverflowError, ValueError):
                    r_try = np.array([np.inf])
            if np.all(np.isfinite(r_try)):
                norm_try = float(np.max(np.abs(r_try)))
                if norm_try < norm:
                    x, r_exp, r, norm = x_try, r_exp_try, r_try, norm_try
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            return NewtonResult(x, norm, False, it)

    return NewtonResult(x, norm, norm <= tol, max_iter)
