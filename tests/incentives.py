"""An independent incentive check: each type's lifetime incentive slack,
valued from an allocation and its wages with its own formulas, apart from
the planner's KKT kernel.

The incentive-compatibility constraint compares a type's own lifetime
utility with what it would get by reporting as the other type: receiving
the other's consumption while supplying l_other * w_other / w_own so that
its labor income matches the other's.
"""

from dataclasses import dataclass

import numpy as np

from aitax.economy import AgentKind, Allocation, PreferenceParams
from aitax.errors import DomainError
from aitax.preferences import nu_eval, u_eval


def mimic_labor(l_other, w_other, w_own):
    """Labor a mimicker must supply to replicate the other type's income.

    Returns l_other * w_other / w_own.
    """
    if np.any(np.asarray(w_own) <= 0.0) or np.any(np.asarray(w_other) <= 0.0):
        raise DomainError("wages must be positive to define mimicking labor")
    if np.any(np.asarray(l_other) < 0.0):
        raise DomainError("labor must be nonnegative")
    return l_other * w_other / w_own


def lifetime_utility(prefs: PreferenceParams, c, l) -> float:
    """Discounted lifetime utility of a consumption/labor path.

    Scalars are treated as a stationary profile, valued at
    (u(c) - nu(l)) / (1 - beta).  Arrays are a finite path valued as
    sum_t beta**t * (u(c_t) - nu(l_t)).
    """
    c_arr = np.asarray(c, dtype=float)
    flows = u_eval(prefs, c_arr) - nu_eval(prefs, np.asarray(l, dtype=float))
    if c_arr.ndim == 0:
        return float(flows / (1.0 - prefs.beta))
    betas = prefs.beta ** np.arange(len(flows))
    return float(np.dot(betas, flows))


@dataclass(frozen=True)
class IccEvaluation:
    """One type's incentive constraint: own utility, mimicking utility, slack."""

    kind: AgentKind
    own_utility: float
    mimic_utility: float

    @property
    def slack(self) -> float:
        return self.own_utility - self.mimic_utility


def icc_slack(
    prefs: PreferenceParams,
    alloc: Allocation,
    wages_c: np.ndarray,
    wages_m: np.ndarray,
    h: AgentKind,
) -> IccEvaluation:
    """Lifetime incentive slack of type ``h`` at a candidate allocation.

    Wages are the per-period equilibrium wages implied by the allocation's
    inputs; the mimicking labor l_j * w_j / w_h uses them period by period.
    Stationary (length-1) allocations are valued in lifetime units, i.e.
    flow / (1 - beta).
    """
    w = {AgentKind.COGNITIVE: np.asarray(wages_c, float), AgentKind.MANUAL: np.asarray(wages_m, float)}
    c = {AgentKind.COGNITIVE: alloc.c_c, AgentKind.MANUAL: alloc.c_m}
    l = {AgentKind.COGNITIVE: alloc.l_c, AgentKind.MANUAL: alloc.l_m}
    j = h.other
    l_mimic = mimic_labor(l[j], w[j], w[h])
    if alloc.n_periods == 1:
        own = lifetime_utility(prefs, float(c[h][0]), float(l[h][0]))
        mim = lifetime_utility(prefs, float(c[j][0]), float(l_mimic[0]))
    else:
        own = lifetime_utility(prefs, c[h], l[h])
        mim = lifetime_utility(prefs, c[j], l_mimic)
    return IccEvaluation(kind=h, own_utility=own, mimic_utility=mim)
