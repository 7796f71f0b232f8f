"""Brute-force grid verification of stationary planner solutions.

Enumerates a six-dimensional product grid over (c_c, c_m, l_c, l_m, K, AI),
keeps the points satisfying stationary feasibility and both incentive
constraints, and maximizes the stationary objective sum_h pi_h (u(c_h) -
nu(l_h)) / (1 - beta).  The default 8-points-per-axis grid has 262,144
candidates.  A point satisfies an incentive constraint when its flow slack
is at least -TOL_ICC (1 - beta), the lifetime margin -TOL_ICC the solver
grants a slack constraint: at a symmetric grid point a slack that is zero
comes out as rounding noise of either sign, and its sign alone would
decide the regime.

No float array spans the product grid.  Every float value is computed once,
on a table of the axes it depends on: output, spending and the mimickers'
labor disutility on (l_c, l_m, K, AI), the objective on (c_c, c_m, l_c,
l_m), and what mimicking is worth on the five axes it depends on (for the
cognitive type, one c_c row at a time).  The product is only walked by
comparisons and boolean reductions, one c_c slice at a time, so memory
grows as points**5: about 1.7 MB at 8 points and 40 MB at 16.  The
objective does not depend on the stocks, so each candidate set reduces
with ``any`` over (K, AI) to a mask on (c_c, c_m, l_c, l_m), and the
maxima are taken there.

The regime is inferred by constraint relaxation on the same grid: re-run
the argmax with one or both incentive constraints dropped and compare
objectives.  Because the candidate set is fixed, the comparisons are
exact float comparisons on nested maxima — dropping a constraint that
does not bind leaves the maximum literally unchanged.  Judging slacks at
the best point cannot make this call: a symmetric economy has both
slacks exactly zero at an optimum that no constraint distorts.  Slacks
are still cross-checked against the relaxation verdict at grid
resolution, and disagreement raises OracleIndeterminateError.

Tie-break: the first maximum in C order over (c_c, c_m, l_c, l_m, K, AI),
which is the lexicographically smallest best point since every axis is
ascending.  It is found in two stages: np.argmax of the masked objective
gives the first best (c_c, c_m, l_c, l_m), then the first (K, AI) there
that satisfies every constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import EconomyConfig
from .errors import DomainError, EmptyFeasibleSetError, OracleIndeterminateError
from .planner import TOL_ICC, PlannerSolution, Regime
from .preferences import nu_eval, u_eval
from .production import evaluate

DEFAULT_POINTS = 8
LIPSCHITZ_ALLOWANCE = 10.0

_AXES = ("c_c", "c_m", "l_c", "l_m", "k", "ai")


@dataclass(frozen=True)
class AxisSpec:
    lo: float
    hi: float
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.points < 3:
            raise DomainError(f"axis needs at least 3 points, got {self.points}")
        if not self.hi > self.lo:
            raise DomainError(f"axis needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.lo <= 0.0:
            raise DomainError(f"axis lower bound must be positive, got {self.lo}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class GridSpec:
    c_c: AxisSpec
    c_m: AxisSpec
    l_c: AxisSpec
    l_m: AxisSpec
    k: AxisSpec
    ai: AxisSpec

    def axes(self) -> tuple[AxisSpec, ...]:
        return tuple(getattr(self, name) for name in _AXES)

    @property
    def diagonal_step(self) -> float:
        """Euclidean norm of the per-axis steps; the resolution scale h."""
        return float(np.sqrt(sum(a.step**2 for a in self.axes())))

    @property
    def n_points(self) -> int:
        return int(np.prod([a.points for a in self.axes()]))


def grid_bracketing(solution: PlannerSolution, frac: float = 0.4,
                    points: int = DEFAULT_POINTS) -> GridSpec:
    """Uniform grid spanning +/- frac around a stationary solution's values."""
    if solution.allocation.n_periods != 1:
        raise DomainError("oracle grids are built around stationary solutions")
    if not 0.0 < frac < 1.0:
        raise DomainError(f"frac must be in (0, 1), got {frac}")
    a = solution.allocation
    center = {
        "c_c": float(a.c_c[0]), "c_m": float(a.c_m[0]),
        "l_c": float(a.l_c[0]), "l_m": float(a.l_m[0]),
        "k": float(a.k[0]), "ai": float(a.ai[0]),
    }
    return GridSpec(**{
        name: AxisSpec(lo=v * (1.0 - frac), hi=v * (1.0 + frac), points=points)
        for name, v in center.items()
    })


@dataclass(frozen=True)
class OracleResult:
    """Best incentive-compatible grid point plus the relaxation diagnostics."""

    objective: float
    point: dict[str, float]
    regime: Regime
    slack_c: float
    slack_m: float
    objective_no_icc: float
    objective_drop_c: float
    objective_drop_m: float
    h: float
    gap_allowance: float
    n_feasible: int
    n_incentive_compatible: int


def _best(masked_objective: np.ndarray) -> tuple[float, tuple[int, ...]]:
    flat = int(np.argmax(masked_objective))
    idx = np.unravel_index(flat, masked_objective.shape)
    return float(masked_objective[idx]), idx


def brute_force_steady(config: EconomyConfig, grid: GridSpec) -> OracleResult:
    """Exhaustive stationary search; see module docstring for the method."""
    prefs, tech = config.prefs, config.tech
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z

    ax = [a.values() for a in grid.axes()]
    l_c4, l_m4, k4, ai4 = np.meshgrid(ax[2], ax[3], ax[4], ax[5], indexing="ij")

    # tables on the (l_c, l_m, K, AI) grid
    el_c4 = pi_c * z_c * l_c4
    el_m4 = pi_m * z_m * l_m4
    tech4 = evaluate(tech, el_c4, el_m4, k4, ai4)
    y4, w_c4, w_m4 = tech4.y, tech4.f_lc * z_c, tech4.f_lm * z_m
    spend4 = tech.delta_k * k4 + tech.delta_ai * ai4 + config.g
    # labor each type would need to reproduce the other's earnings
    nu_mimic_c = nu_eval(prefs, l_m4 * w_m4 / w_c4)
    nu_mimic_m = nu_eval(prefs, l_c4 * w_c4 / w_m4)

    u_cc, u_cm = u_eval(prefs, ax[0]), u_eval(prefs, ax[1])
    cost = pi_c * ax[0][:, None] + pi_m * ax[1]                # (c_c, c_m)
    own_c = u_cc[:, None] - nu_eval(prefs, ax[2])              # (c_c, l_c)
    own_m = u_cm[:, None] - nu_eval(prefs, ax[3])              # (c_m, l_m)
    # what mimicking the manual type is worth: (c_m, l_c, l_m, K, AI)
    tempt_c = u_cm.reshape(-1, 1, 1, 1, 1) - nu_mimic_c

    scale = 1.0 / (1.0 - prefs.beta)
    objective = (pi_c * own_c[:, None, :, None]
                 + pi_m * own_m[None, :, None, :]) * scale     # (c_c, c_m, l_c, l_m)

    # Which (c_c, c_m, l_c, l_m) have some (K, AI) in each candidate set:
    # feasible in both constraints, in none, in the manual one only, in the
    # cognitive one only.  A constraint holds where its flow slack own -
    # tempt is at least ``floor``, the solver's slack margin in flow units.
    floor = -TOL_ICC * (1.0 - prefs.beta)
    masks = np.empty((4,) + objective.shape, dtype=bool)
    # one c_c slice, (c_m, l_c, l_m, K, AI), of each set
    sets = np.empty((4,) + tempt_c.shape, dtype=bool)
    both, feasible, feasible_m, feasible_c = sets
    ok_c, ok_m = np.empty((2,) + tempt_c.shape, dtype=bool)
    work = np.empty(tempt_c.shape)  # one slice's spending, then each flow slack
    # own_m spread over the slice once, so the per-slice comparison is flat
    own_m5 = np.broadcast_to(own_m.reshape(-1, 1, own_m.shape[1], 1, 1), tempt_c.shape).copy()
    n_feasible = n_ic = 0
    for i in range(len(ax[0])):
        np.add(cost[i].reshape(-1, 1, 1, 1, 1), spend4, out=work)
        np.less_equal(work, y4, out=feasible)
        np.subtract(own_c[i].reshape(-1, 1, 1, 1), tempt_c, out=work)
        np.greater_equal(work, floor, out=ok_c)
        # what mimicking the cognitive type is worth at this c_c
        np.subtract(own_m5, u_cc[i] - nu_mimic_m, out=work)
        np.greater_equal(work, floor, out=ok_m)
        np.logical_and(feasible, ok_c, out=feasible_c)
        np.logical_and(feasible, ok_m, out=feasible_m)
        np.logical_and(feasible_c, ok_m, out=both)
        np.any(sets, axis=(4, 5), out=masks[:, i])
        n_feasible += np.count_nonzero(feasible)
        n_ic += np.count_nonzero(both)

    if not n_feasible:
        raise EmptyFeasibleSetError(
            "no grid point satisfies stationary feasibility"
        )
    if not n_ic:
        raise EmptyFeasibleSetError(
            "no feasible grid point satisfies both incentive constraints"
        )

    neg = np.float64(-np.inf)
    (best_all, idx), (best_no_icc, _), (best_drop_c, _), (best_drop_m, _) = (
        _best(np.where(mask, objective, neg)) for mask in masks
    )
    # the first (K, AI) at the best (c_c, c_m, l_c, l_m) in both constraints
    i, j, a, b = idx
    at_best = ((cost[i, j] + spend4[a, b] <= y4[a, b])
               & (own_c[i, a] - tempt_c[j, a, b] >= floor)
               & (own_m[j, b] - (u_cc[i] - nu_mimic_m[a, b]) >= floor))
    k, m = np.unravel_index(int(np.argmax(at_best)), at_best.shape)
    idx = (i, j, a, b, k, m)

    helps_c = best_drop_c > best_all  # dropping the cognitive constraint helps
    helps_m = best_drop_m > best_all
    if best_no_icc == best_all:
        regime = Regime.NONE_BIND
    elif helps_c and not helps_m:
        regime = Regime.COGNITIVE_BINDS
    elif helps_m and not helps_c:
        regime = Regime.MANUAL_BINDS
    else:
        regime = Regime.BOTH_BIND

    h = grid.diagonal_step
    gap = LIPSCHITZ_ALLOWANCE * h
    flow_c = float(own_c[i, a] - tempt_c[j, a, b, k, m])
    flow_m = float(own_m[j, b] - (u_cc[i] - nu_mimic_m[a, b, k, m]))
    s_c, s_m = flow_c * scale, flow_m * scale
    # cross-check at flow scale: a constraint the relaxation calls binding
    # must have small slack at the best point, up to grid resolution
    binding = {
        Regime.NONE_BIND: (),
        Regime.COGNITIVE_BINDS: (flow_c,),
        Regime.MANUAL_BINDS: (flow_m,),
        Regime.BOTH_BIND: (flow_c, flow_m),
    }[regime]
    if any(abs(s) > gap for s in binding):
        raise OracleIndeterminateError(
            f"relaxation says {regime.value} but best-point flow slacks "
            f"({flow_c:.3e}, {flow_m:.3e}) exceed the grid allowance {gap:.3e}"
        )

    point = {name: float(ax[n][idx[n]]) for n, name in enumerate(_AXES)}
    return OracleResult(
        objective=best_all,
        point=point,
        regime=regime,
        slack_c=s_c,
        slack_m=s_m,
        objective_no_icc=best_no_icc,
        objective_drop_c=best_drop_c,
        objective_drop_m=best_drop_m,
        h=h,
        gap_allowance=gap,
        n_feasible=int(n_feasible),
        n_incentive_compatible=int(n_ic),
    )


def agreement(solution: PlannerSolution, result: OracleResult) -> dict:
    """Compare a solver solution against an oracle run on the same economy.

    The solver should do at least as well as the grid up to the Lipschitz
    allowance, and both should name the same regime.
    """
    gap = result.objective - solution.objective
    return {
        "objective_gap": gap,
        "objective_ok": bool(gap <= result.gap_allowance),
        "regime_solver": solution.regime.value,
        "regime_oracle": result.regime.value,
        "regime_ok": bool(solution.regime == result.regime),
    }
