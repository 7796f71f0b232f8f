"""Damped Newton iteration for square nonlinear systems.

Every system comes with its exact Jacobian, a function of one point, and
its residual is only ever evaluated on one point: no derivative here is
a difference of residuals.  A dense system, a steady state's 7-9
unknowns or the capital presolve's 2, has the m x m matrix as its
Jacobian, and its step is one LU solve of it.

A finite-horizon path is a ``Band``: its Jacobian fills band storage, so
no m x m matrix is built.  The band gives every unknown, and the Newton
row paired with it, a slot in a block; the blocks are ordered so that a
row of block s touches only the unknowns of blocks s - 1, s and s + 1
(one block per period), and the unknowns in no block (its multipliers)
form a border whose columns and rows may be dense.  The step is block
Gaussian elimination over the blocks with partial pivoting inside each:
it eliminates them from both ends at once, the two sweeps' blocks solved
two at a time in one small LU call, solves the middle block where they
meet, substitutes back out to both ends, and then solves the Schur
complement of the border.  Its cost grows linearly with the number of
blocks; eliminating from both ends halves the number of calls, which at a
few microseconds each is what a 7 x 7 block costs.

Steps are halved on the residual max-norm, and a fraction-to-boundary rule
keeps selected components above hard lower bounds.  Everything is
deterministic: no randomness, fixed iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_ITER = 200
MAX_HALVINGS = 40


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


class Band:
    """A path's banded Newton system of ``m`` unknowns: its entries and blocks.

    ``rows`` and ``owners`` list the entries its Jacobian fills, each by its
    Newton row and its unknown, and ``entry_at`` is each entry's slot in
    band storage; every other slot holds zero.  ``blocks`` is an (n, b)
    array of n >= 2 blocks: block s holds unknown ``blocks[s, a]`` and its
    Newton row in slot a, or nothing where it reads -1; the unknowns it
    leaves out are the border.  An entry's row and unknown must lie in the
    border or in blocks at most one apart.

    The step eliminates the blocks from both ends at once, two sweeps that
    meet at the middle block k = n // 2: pair i holds block i of the
    downward sweep and block 2k - i of the upward one (an empty block when
    that is n), and the middle block is stored after the pairs.  A block
    row is stored as ``[L | D | U | rhs | B]``: its entries in the block it
    is eliminated after (the one before it, or after it in the upward
    sweep), in its own block and in the block on its other side, then its
    right-hand side and its entries in the border's unknowns.  Each border
    row is stored as its entries in every block slot, in storage order,
    then in the border, then its right-hand side.  An empty slot is an
    identity row and column, so its unknown solves to zero.
    """

    def __init__(self, m: int, rows: np.ndarray, owners: np.ndarray, blocks: np.ndarray):
        self.rows, self.owners = rows, owners
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
        width = 3 * b + 1 + p
        edge = core + p + 1

        i, j = place[rows], place[owners]
        in_core = i < core
        # how far an entry's unknown lies from its row, in the row's sweep
        # direction: the upward sweep's rows (odd storage blocks) are mirrored
        at_i, at_j = np.minimum(i // b, 2 * k), np.minimum(j // b, 2 * k)
        step = (block[at_j] - block[at_i]) * (1 - 2 * (at_i % 2))
        if np.any(np.abs(step[in_core & (j < core)]) > 1):
            raise ValueError("an entry lies outside its blocks' band")
        col = np.where(j < core, b + step * b + j % b, 3 * b + 1 + j - core)
        self.entry_at = np.where(in_core, i * width + col, core * width + (i - core) * edge + j)
        self.rhs_at = np.where(place < core, place * width + 3 * b,
                               core * width + (place - core) * edge + core + p)
        empty = np.ones(core, dtype=bool)
        empty[place[place < core]] = False
        empty = np.flatnonzero(empty)
        self.empty_at = empty * width + b + empty % b
        self.size = core * width + p * edge
        self.place, self.shape, self.p = place, (k, b, width), p

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
        p = self.p
        storage[self.empty_at] = 1.0
        storage[self.rhs_at] = rhs
        core = (2 * k + 1) * b
        pairs = storage[: 2 * k * b * width].reshape(k, 2, b, width)
        middle = storage[2 * k * b * width : core * width].reshape(b, width)
        solved = []  # each pair's pivots solved for [U | rhs | B]
        for row in pairs:
            if solved:
                update = row[..., :b] @ solved[-1]
                row[..., b : 2 * b] -= update[..., :b]
                row[..., 3 * b :] -= update[..., b:]
            solved.append(np.linalg.solve(row[..., b : 2 * b], row[..., 2 * b :]))
        last = solved[-1]
        update = middle[:, :b] @ last[0] + middle[:, 2 * b : 3 * b] @ last[1]
        middle[:, b : 2 * b] -= update[:, :b]
        middle[:, 3 * b :] -= update[:, b:]
        z = np.empty((2 * k + 1, b, 1 + p))  # the blocks' solutions in storage order
        z[-1] = x = np.linalg.solve(middle[:, b : 2 * b], middle[:, 3 * b :])
        for i in range(k - 1, -1, -1):
            pivots = solved[i]
            x = z[2 * i : 2 * i + 2] = pivots[..., b:] - pivots[..., :b] @ x
        z = z.reshape(core, 1 + p)
        if p:
            edge = storage[core * width :].reshape(p, -1)
            across, corner, edge_rhs = edge[:, :core], edge[:, core:-1], edge[:, -1]
            shift = z[:, 1:]
            mu = np.linalg.solve(corner - across @ shift, edge_rhs - across @ z[:, 0])
            return np.concatenate([z[:, 0] - shift @ mu, mu])[self.place]
        return z[self.place, 0]


def newton_solve(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    jac: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    max_iter: int = MAX_ITER,
    lower: np.ndarray | None = None,
    band: Band | None = None,
) -> NewtonResult:
    """Solve f(x) = 0 by damped Newton from x0.

    ``f`` takes one point, a 1-D array, and returns its m residuals.
    ``jac(x)`` is their exact Jacobian at a point whose residual is finite:
    the m x m matrix, each step then one LU solve of it, or, for a system
    with a ``band``, that matrix in the band's storage, each step then one
    small LU solve per block and one Schur complement for the border.
    ``lower`` gives hard lower bounds per component (-inf where free); steps
    are shortened so iterates keep a 0.5% distance-to-bound margin.

    ``f`` signals a point outside its domain by a non-finite residual,
    which fails a start and rejects a line-search trial.  An exception
    that ``f`` raises propagates and ends the solve: a bug in ``f``, or
    its caller's own refusal (the capital presolve's, at the AI corner).
    Each residual is reduced once, to its max-norm; a residual with an inf
    or a nan has a non-finite norm, and that is how it is told apart.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo = np.full_like(x, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    has_lower = np.isfinite(lo)

    r = np.asarray(f(x), dtype=float)
    norm = float(np.abs(r).max())
    if not math.isfinite(norm):
        return NewtonResult(x, np.inf, False, 0)

    for it in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(x, norm, True, it - 1)
        matrix = jac(x)
        if not np.isfinite(matrix).all():
            return NewtonResult(x, norm, False, it)
        try:
            dx = np.linalg.solve(matrix, -r) if band is None else band.solve(matrix, -r)
        except np.linalg.LinAlgError:
            return NewtonResult(x, norm, False, it)

        # fraction-to-boundary: keep bounded components strictly inside
        alpha = 1.0
        bounded = has_lower & (dx < 0.0)
        if bounded.any():
            gap = x[bounded] - lo[bounded]
            alpha = min(1.0, float((-0.995 * gap / dx[bounded]).min()))
        if alpha <= 0.0:
            return NewtonResult(x, norm, False, it)

        improved = False
        for _ in range(MAX_HALVINGS):
            x_try = x + alpha * dx
            with np.errstate(all="ignore"):
                r_try = np.asarray(f(x_try), dtype=float)
            norm_try = float(np.abs(r_try).max())
            if norm_try < norm:  # false for a nan or inf norm too
                x, r, norm = x_try, r_try, norm_try
                improved = True
                break
            alpha *= 0.5
        if not improved:
            return NewtonResult(x, norm, False, it)

    return NewtonResult(x, norm, norm <= tol, max_iter)
