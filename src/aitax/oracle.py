"""Brute-force grid verification of stationary planner solutions.

Enumerates a six-dimensional product grid over (c_c, c_m, l_c, l_m, K, AI),
keeps the points satisfying stationary feasibility and both incentive
constraints evaluated exactly, and maximizes the stationary objective
sum_h pi_h (u(c_h) - nu(l_h)) / (1 - beta).  Everything is vectorized;
the default 8-points-per-axis grid has 262,144 candidates.

The regime is inferred by constraint relaxation on the same grid: re-run
the argmax with one or both incentive constraints dropped and compare
objectives.  Because the candidate set is fixed, the comparisons are
exact float comparisons on nested maxima — dropping a constraint that
does not bind leaves the maximum literally unchanged.  Judging slacks at
the best point cannot make this call: a symmetric economy has both
slacks exactly zero at an optimum that no constraint distorts.  Slacks
are still cross-checked against the relaxation verdict at grid
resolution, and disagreement raises OracleIndeterminateError.

Tie-break: np.argmax over the C-ordered grid returns the first maximum,
which is the lexicographically smallest point in axis order
(c_c, c_m, l_c, l_m, K, AI) since every axis is ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import EconomyConfig
from .errors import DomainError, EmptyFeasibleSetError, OracleIndeterminateError
from .planner import PlannerSolution, Regime
from .preferences import nu_eval, u_eval
from .production import output, wages

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
    c_c = ax[0].reshape(-1, 1, 1, 1, 1, 1)
    c_m = ax[1].reshape(1, -1, 1, 1, 1, 1)
    l_c4, l_m4, k4, ai4 = np.meshgrid(ax[2], ax[3], ax[4], ax[5], indexing="ij")

    el_c4 = pi_c * z_c * l_c4
    el_m4 = pi_m * z_m * l_m4
    y4 = output(tech, el_c4, el_m4, k4, ai4)
    w_c4, w_m4 = wages(tech, config, el_c4, el_m4, k4, ai4)

    shape4 = (1, 1) + l_c4.shape
    y = y4.reshape(shape4)
    spend4 = (tech.delta_k * k4 + tech.delta_ai * ai4 + config.g).reshape(shape4)
    feasible = pi_c * c_c + pi_m * c_m + spend4 <= y

    u_cc = u_eval(prefs, ax[0]).reshape(-1, 1, 1, 1, 1, 1)
    u_cm = u_eval(prefs, ax[1]).reshape(1, -1, 1, 1, 1, 1)
    nu_lc = nu_eval(prefs, ax[2]).reshape(1, 1, -1, 1, 1, 1)
    nu_lm = nu_eval(prefs, ax[3]).reshape(1, 1, 1, -1, 1, 1)
    # labor each type would need to reproduce the other's earnings
    nu_mimic_c = nu_eval(prefs, l_m4 * w_m4 / w_c4).reshape(shape4)
    nu_mimic_m = nu_eval(prefs, l_c4 * w_c4 / w_m4).reshape(shape4)

    slack_c = (u_cc - nu_lc) - (u_cm - nu_mimic_c)
    slack_m = (u_cm - nu_lm) - (u_cc - nu_mimic_m)
    ok_c = slack_c >= 0.0
    ok_m = slack_m >= 0.0

    scale = 1.0 / (1.0 - prefs.beta)
    objective = (pi_c * (u_cc - nu_lc) + pi_m * (u_cm - nu_lm)) * scale

    neg = np.float64(-np.inf)
    obj_feas = np.where(feasible, objective, neg)
    if not np.any(feasible):
        raise EmptyFeasibleSetError(
            "no grid point satisfies stationary feasibility"
        )
    mask_all = feasible & ok_c & ok_m
    if not np.any(mask_all):
        raise EmptyFeasibleSetError(
            "no feasible grid point satisfies both incentive constraints"
        )

    best_all, idx = _best(np.where(mask_all, objective, neg))
    best_no_icc, _ = _best(obj_feas)
    best_drop_c, _ = _best(np.where(feasible & ok_m, objective, neg))
    best_drop_m, _ = _best(np.where(feasible & ok_c, objective, neg))

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
    flow_c = float(slack_c[idx])
    flow_m = float(slack_m[idx])
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

    point = {name: float(ax[i][idx[i]]) for i, name in enumerate(_AXES)}
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
        n_feasible=int(np.count_nonzero(feasible)),
        n_incentive_compatible=int(np.count_nonzero(mask_all)),
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
