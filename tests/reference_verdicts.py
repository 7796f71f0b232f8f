"""The factor-bias verdicts judged one condition at a time, kept as a reference.

``production.check_assumptions`` judges A1-A3 in one stacked pass over the
four partials of the wage ratio.  This is the same check written the
earlier way: one ``_judge`` per assumption, over a list of (axis name,
partial, required sign) conditions.  The tests require the two to give
the same report, bit for bit.
"""

import numpy as np

from aitax.errors import DomainError
from aitax.production import (
    TOL_STRICT,
    VERDICT_FAIL,
    VERDICT_NON_STRICT,
    VERDICT_PASS,
    AssumptionCheck,
    AssumptionReport,
    evaluate,
    mpl_ratio_gradient,
)


def _judge(conditions, axes) -> tuple[str, float, tuple, str]:
    """Combine signed derivative conditions into one verdict.

    ``conditions`` is a list of (axis_name, derivative_array, required_sign),
    each array over the product of the four grid ``axes``.  The worst point
    is the one with the smallest signed margin.
    """
    verdict = VERDICT_PASS
    worst_margin = np.inf
    worst = (0.0, (np.nan,) * 4, conditions[0][0])
    for axis_name, deriv, sign in conditions:
        margin = sign * deriv
        idx = np.unravel_index(np.argmin(margin), margin.shape)
        m = float(margin[idx])
        if m < worst_margin:
            worst_margin = m
            point = tuple(float(ax[i]) for ax, i in zip(axes, idx))
            worst = (float(deriv[idx]), point, axis_name)
        if np.any(margin < -TOL_STRICT):
            verdict = VERDICT_FAIL
        elif verdict != VERDICT_FAIL and np.any(np.abs(deriv) <= TOL_STRICT):
            verdict = VERDICT_NON_STRICT
    return verdict, worst[0], worst[1], worst[2]


def check_assumptions(tech, center=(1.0, 1.0, 1.0, 1.0), factor: float = 2.0,
                      points: int = 5) -> AssumptionReport:
    """``production.check_assumptions``, one ``_judge`` per assumption."""
    if not (np.isfinite(factor) and factor > 1.0):
        raise DomainError(f"grid factor must be finite and exceed 1, got {factor}")
    if points < 3:
        raise DomainError(f"grid points must be at least 3, got {points}")
    with np.errstate(all="ignore"):
        axes = np.geomspace(np.divide(center, factor), np.multiply(center, factor), points, axis=-1)
        mesh = np.ix_(*axes)
        diffs = d_lc, d_lm, d_k, d_ai = mpl_ratio_gradient(tech, evaluate(tech, *mesh), *mesh)
    if not all(np.isfinite(d).all() for d in diffs):
        spans = ", ".join(f"{name} [{axis.min():g}, {axis.max():g}]" for name, axis in
                          zip(("L_c", "L_m", "K", "AI"), axes))
        raise DomainError(f"ratio derivatives must be finite on the grid {spans}")

    a1 = AssumptionCheck("A1", *_judge([("K", d_k, +1.0)], axes))
    a2 = AssumptionCheck("A2", *_judge([("AI", d_ai, -1.0)], axes))
    a3 = AssumptionCheck("A3", *_judge([("L_c", d_lc, -1.0), ("L_m", d_lm, +1.0)], axes))
    return AssumptionReport(a1=a1, a2=a2, a3=a3)
