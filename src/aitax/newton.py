"""Damped Newton iteration for square nonlinear systems.

The Jacobian is a forward difference whose columns are grouped
(Curtis, Powell & Reid 1974): unknowns that share no residual row are
perturbed together, so one perturbed point fills a whole group.  The
groups' points are evaluated as one stack, a (groups x unknowns) array, in
a single residual call, so the residual must take such a stack and return
one row of residuals per point.  The per-call overhead of a small
residual, not its arithmetic, is what a Jacobian costs, and that holds for
a dense one too: without groups every unknown is a group of its own, and a
steady state's 7-9 columns are still one call, at about a third of the
cost of one call per column.  The residual may be *expanded*: it returns
more rows than there are unknowns, and the groups' fold sums them into the
Newton rows.  Each Jacobian entry is added straight into its Newton row, so
no expanded Jacobian is built; a dense row that is a sum of local terms
keeps a sparse pattern.

Steps are halved on the residual max-norm, and a fraction-to-boundary rule
keeps selected components above hard lower bounds.  Everything is
deterministic: no randomness, fixed iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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


class Groups(NamedTuple):
    """Column groups of a forward-difference Jacobian.

    ``color[j]`` is the group of unknown j; unknowns of one group share no
    residual row.  ``rows`` and ``owners`` list the entries the groups'
    evaluations fill, each by its residual row and its unknown.  ``fold[i]``
    is the Newton row that residual row i is summed into.
    """

    color: np.ndarray
    rows: np.ndarray
    owners: np.ndarray
    fold: np.ndarray


def dense_groups(m: int) -> Groups:
    """Every unknown in a group of its own, every entry filled, no fold."""
    rows, owners = np.divmod(np.arange(m * m), m)
    return Groups(np.arange(m), rows, owners, np.arange(m))


def _jacobian(f: Callable, x: np.ndarray, r0: np.ndarray, groups: Groups) -> np.ndarray:
    """Forward-difference Newton matrix of ``f`` at x, m x m.

    Each group's perturbed point is one row of a stack that ``f``
    evaluates in a single call; each listed entry is read from its own row
    of its column's group and added, in list order, into its folded row.
    Every other entry stays zero.  Each column has its own step.
    ``r0`` is ``f(x)``, expanded rows and all.
    """
    color, rows, owners, fold = groups
    m = len(x)
    steps = JAC_STEP * np.maximum(1.0, np.abs(x))
    stack = np.tile(x, (color.max() + 1, 1))
    stack[color, np.arange(m)] += steps
    r = np.asarray(f(stack), dtype=float)
    jac = np.zeros((m, m))
    np.add.at(jac, (fold[rows], owners), (r[color[owners], rows] - r0[rows]) / steps[owners])
    return jac


def newton_solve(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = MAX_ITER,
    lower: np.ndarray | None = None,
    groups: Groups | None = None,
) -> NewtonResult:
    """Solve f(x) = 0 by damped Newton from x0.

    ``lower`` gives hard lower bounds per component (-inf where free); steps
    are shortened so iterates keep a 0.5% distance-to-bound margin.
    ``groups`` are the Jacobian's column groups and the fold of the rows
    ``f`` returns into Newton rows (default: dense, one unknown per group
    and one row per unknown).

    ``f`` takes one point, a 1-D array, and also a stack of points, a 2-D
    array with one point per row, whose residuals it returns row by row:
    each Jacobian is one call of ``f`` on a stack of one point per group.
    A stacked row may differ from the one-point row in the last bits (a
    steady state's single points are evaluated on scalars); the forward
    difference divides that by its step, which leaves it below the
    difference's own truncation error.

    ``f`` signals a point outside its domain by a non-finite residual,
    which fails a start and rejects a line-search trial.  An exception
    that ``f`` raises is a bug in ``f``, and it propagates.
    """
    x = np.asarray(x0, dtype=float).copy()
    m = len(x)
    lo = np.full_like(x, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    groups = dense_groups(m) if groups is None else groups

    def residual(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The expanded rows and the folded Newton rows at x."""
        expanded = np.asarray(f(x), dtype=float)
        return expanded, np.bincount(groups.fold, weights=expanded, minlength=m)

    r_exp, r = residual(x)
    if not np.all(np.isfinite(r)):
        return NewtonResult(x, np.inf, False, 0)
    norm = float(np.max(np.abs(r)))

    for it in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(x, norm, True, it - 1)
        jac = _jacobian(f, x, r_exp, groups)
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
                r_exp_try, r_try = residual(x_try)
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
