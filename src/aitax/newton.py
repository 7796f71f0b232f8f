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

Each entry goes into band storage, never into an m x m matrix.  The groups
give every unknown, and the Newton row paired with it, a slot in a block;
the blocks are ordered so that a row of block s touches only the unknowns
of blocks s - 1, s and s + 1 (for a finite-horizon path, one block per
period), and the unknowns in no block (its multipliers) form a border
whose columns and rows may be dense.  The step is block Gaussian
elimination over the blocks with partial pivoting inside each: it
eliminates them from both ends at once, the two sweeps' blocks solved
two at a time in one small LU call, solves the middle block where they
meet, substitutes back out to both ends, and then solves the Schur
complement of the border.  Its cost grows linearly with the number of
blocks; eliminating from both ends halves the number of calls, which at
a few microseconds each is what a 7 x 7 block costs.  A dense system is
the one-block case with no border, whose step is a single LU solve of
the whole matrix.

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
    """Column groups of a forward-difference Jacobian, and its blocks.

    ``color[j]`` is the group of unknown j; unknowns of one group share no
    residual row.  ``rows`` and ``owners`` list the entries the groups'
    evaluations fill, each by its residual row and its unknown.  ``fold[i]``
    is the Newton row that residual row i is summed into.  ``blocks`` is an
    (n, b) array: block s holds unknown ``blocks[s, a]`` and its Newton
    row in slot a, or nothing where it reads -1; the unknowns it leaves out
    are the border.  An entry's row and unknown must lie in the border or
    in blocks at most one apart.  None is one block of every unknown.
    """

    color: np.ndarray
    rows: np.ndarray
    owners: np.ndarray
    fold: np.ndarray
    blocks: np.ndarray | None = None


def dense_groups(m: int) -> Groups:
    """Every unknown in a group of its own, every entry filled, no fold."""
    rows, owners = np.divmod(np.arange(m * m), m)
    return Groups(np.arange(m), rows, owners, np.arange(m))


class _Band:
    """Where each Newton matrix entry sits in band storage, and the step.

    The step eliminates the blocks from both ends at once, two sweeps that
    meet at the middle block k = n // 2: pair i holds block i of the
    downward sweep and block 2k - i of the upward one (an empty block when
    that is n), and the middle block is stored after the pairs.  A block
    row is stored as ``[L | D | U | rhs | B]``: its entries in the block it
    is eliminated after (the one before it, or after it in the upward
    sweep), in its own block and in the block on its other side, then its
    right-hand side and its entries in the border's unknowns (one block has
    no ``L`` or ``U``).  Each border row is stored as its entries in every
    block slot, in storage order, then in the border, then its right-hand
    side.  An empty slot is an identity row and column, so its unknown
    solves to zero.
    """

    def __init__(self, groups: Groups, m: int):
        if groups.blocks is None:
            # the general layout of one block and no border, written out:
            # row i is stored as its m entries and its right-hand side.  The
            # general way costs several of a steady state's Newton steps.
            self.place = np.arange(m)
            self.entry_at = groups.fold[groups.rows] * (m + 1) + groups.owners
            self.rhs_at = self.place * (m + 1) + m
            self.empty_at = self.place[:0]
            self.size, self.shape, self.lag, self.p = m * (m + 1), (0, m, m + 1), 0, 0
            return
        blocks = groups.blocks
        n, b = blocks.shape
        k = n // 2
        # the storage block of each block (2s before the middle, 4k + 1 - 2s
        # after it), and the block stored at each storage block (n: empty)
        s = np.arange(n)
        order = np.minimum(2 * s, 4 * k + 1 - 2 * s)
        block = np.full(2 * k + 1, n)
        block[order] = s
        core = (2 * k + 1) * b
        place = np.full(m, -1)  # each unknown's storage slot, the border's after the blocks'
        filled = blocks >= 0
        place[blocks[filled]] = (order[:, None] * b + np.arange(b))[filled]
        border = place < 0
        p = int(border.sum())
        place[border] = np.arange(core, core + p)
        lag = b if n > 1 else 0
        width = 2 * lag + b + 1 + p
        edge = core + p + 1

        i, j = place[groups.fold[groups.rows]], place[groups.owners]
        in_core = i < core
        # how far an entry's unknown lies from its row, in the row's sweep
        # direction: the upward sweep's rows (odd storage blocks) are mirrored
        at_i, at_j = np.minimum(i // b, 2 * k), np.minimum(j // b, 2 * k)
        step = (block[at_j] - block[at_i]) * (1 - 2 * (at_i % 2))
        if np.any(np.abs(step[in_core & (j < core)]) > 1):
            raise ValueError("an entry lies outside its blocks' band")
        col = np.where(j < core, lag + step * b + j % b, 2 * lag + b + 1 + j - core)
        self.entry_at = np.where(in_core, i * width + col, core * width + (i - core) * edge + j)
        self.rhs_at = np.where(place < core, place * width + 2 * lag + b,
                               core * width + (place - core) * edge + core + p)
        empty = np.ones(core, dtype=bool)
        empty[place[place < core]] = False
        empty = np.flatnonzero(empty)
        self.empty_at = empty * width + lag + empty % b
        self.size = core * width + p * edge
        self.place, self.shape, self.lag, self.p = place, (k, b, width), lag, p

    def solve(self, storage: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The solution of the stored matrix times dx = ``rhs``.

        ``storage`` holds the entries, and is overwritten by the sweeps.
        Block Gaussian elimination: each pair's two pivots, updated by the
        pair before, are solved in one stacked call for their ``U``
        columns, right-hand sides and border columns; the middle block,
        updated by both last pivots, is solved for its right-hand side and
        border columns, and the back substitution runs out from it to both
        ends.  The border's unknowns then solve the Schur complement, at
        most |border| x |border|.
        """
        k, b, width = self.shape
        lag, p = self.lag, self.p
        storage[self.empty_at] = 1.0
        storage[self.rhs_at] = rhs
        core = (2 * k + 1) * b
        pairs = storage[: 2 * k * b * width].reshape(k, 2, b, width)
        middle = storage[2 * k * b * width : core * width].reshape(b, width)
        solved = []  # each pair's pivots solved for [U | rhs | B]
        for row in pairs:
            if solved:
                update = row[..., :lag] @ solved[-1]
                row[..., lag : lag + b] -= update[..., :lag]
                row[..., 2 * lag + b :] -= update[..., lag:]
            solved.append(np.linalg.solve(row[..., lag : lag + b], row[..., lag + b :]))
        if solved:
            last = solved[-1]
            update = middle[:, :lag] @ last[0] + middle[:, lag + b : 2 * lag + b] @ last[1]
            middle[:, lag : lag + b] -= update[:, :lag]
            middle[:, 2 * lag + b :] -= update[:, lag:]
        z = np.empty((2 * k + 1, b, 1 + p))  # the blocks' solutions in storage order
        z[-1] = x = np.linalg.solve(middle[:, lag : lag + b], middle[:, 2 * lag + b :])
        for i in range(k - 1, -1, -1):
            pivots = solved[i]
            x = z[2 * i : 2 * i + 2] = pivots[..., lag:] - pivots[..., :lag] @ x
        z = z.reshape(core, 1 + p)
        if p:
            edge = storage[core * width :].reshape(p, -1)
            across, corner, edge_rhs = edge[:, :core], edge[:, core:-1], edge[:, -1]
            shift = z[:, 1:]
            mu = np.linalg.solve(corner - across @ shift, edge_rhs - across @ z[:, 0])
            return np.concatenate([z[:, 0] - shift @ mu, mu])[self.place]
        return z[self.place, 0]


def _jacobian(f: Callable, x: np.ndarray, r0: np.ndarray, groups: Groups,
              band: _Band) -> np.ndarray:
    """Forward-difference Newton matrix of ``f`` at x, in ``band``'s storage.

    Each group's perturbed point is one row of a stack that ``f``
    evaluates in a single call; each listed entry is read from its own row
    of its column's group and added, in list order, into its slot of its
    folded row.  Every other slot stays zero.  Each column has its own
    step.  ``r0`` is ``f(x)``, expanded rows and all.
    """
    color, rows, owners = groups.color, groups.rows, groups.owners
    m = len(x)
    steps = JAC_STEP * np.maximum(1.0, np.abs(x))
    stack = np.tile(x, (color.max() + 1, 1))
    stack[color, np.arange(m)] += steps
    r = np.asarray(f(stack), dtype=float)
    entries = (r[color[owners], rows] - r0[rows]) / steps[owners]
    storage = np.zeros(band.size)
    np.add.at(storage, band.entry_at, entries)
    return storage


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
    ``groups`` are the Jacobian's column groups, the fold of the rows ``f``
    returns into Newton rows, and the blocks the step eliminates (default:
    dense, one unknown per group, one row per unknown and one block, whose
    step is one LU solve of the m x m matrix).  A path gives one block per
    period: a step then costs one small LU solve per period and one Schur
    complement for its border, and no m x m matrix is formed.

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
    band = _Band(groups, m)

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
        jac = _jacobian(f, x, r_exp, groups, band)
        if not np.all(np.isfinite(jac)):
            return NewtonResult(x, norm, False, it)
        try:
            dx = band.solve(jac, -r)
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
