"""A second-order check of a steady state: its exact Jacobian scaled into
the Lagrangian's Hessian, and that Hessian on the directions the
constraints leave free.

A steady state repeated over n periods, with both end stocks pinned to its
own, solves the n-period problem, so the path's exact Jacobian
(``planner._jacobian_fn``) holds the second partials there.  Its rows are
partials of one Lagrangian up to a row scale: period t's rows by beta**t,
the Euler rows into K_{t+1} and AI_{t+1} by -beta**t lam_{t+1}, a lifetime
slack row by 1.  At a KKT point the scale's own derivative multiplies a
zero row, so the scaled Jacobian is the Lagrangian's Hessian, symmetric.
The point is a strict local maximum when that Hessian is negative definite
on the null space of the constraint gradients: each period's feasibility
and each imposed incentive constraint (Nocedal & Wright, *Numerical
Optimization*, 2nd ed., Thm 12.6).
"""

import numpy as np

from aitax import planner


def lagrangian_hessian(solution, n: int = 7) -> tuple[np.ndarray, int]:
    """The Lagrangian's Hessian at the steady state ``solution`` repeated
    over ``n`` periods, in the path's Newton unknowns, and how many of them
    come first as primal unknowns (consumptions, labors, interior stocks),
    before each period's lam and the imposed multipliers."""
    config = solution.config
    a = solution.allocation
    ends = (a.k[0], a.ai[0], a.k[0], a.ai[0])
    layout = planner._Layout(planner._BINDING[solution.regime], n=n, ends=ends)
    x = layout.start(planner._steady_point(solution))
    band = layout.band
    jac = np.zeros((len(x), len(x)))
    jac[band.rows, band.owners] = planner._jacobian_fn(config, layout)(x)[band.entry_at]
    discount = config.prefs.beta ** np.arange(n)
    euler = -discount[:-1] * solution.multipliers.lam[0]
    scale = np.concatenate([np.tile(discount, 4), euler, euler, discount,
                            np.ones(len(layout.active))])
    return scale[:, None] * jac, 6 * n - 2


def reduced_hessian_eigenvalues(solution, n: int = 7) -> tuple[np.ndarray, float]:
    """Eigenvalues of the Lagrangian's Hessian on the null space of the
    constraint gradients, ascending, and the Hessian's relative asymmetry
    (its largest |H - H'| entry over its largest |H| entry)."""
    h, primal = lagrangian_hessian(solution, n)
    asymmetry = np.max(np.abs(h - h.T)) / np.max(np.abs(h))
    _, sv, vt = np.linalg.svd(h[primal:, :primal])
    free = vt[np.sum(sv > sv[0] * 1e-12):].T
    hxx = h[:primal, :primal]
    return np.linalg.eigvalsh(free.T @ (0.5 * (hxx + hxx.T)) @ free), float(asymmetry)
