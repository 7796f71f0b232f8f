"""Parameter sweeps, regime-flip bisection, and the lump-sum transfer check.

A sweep re-solves the stationary planner problem along a grid of one
technology or productivity parameter, warm-starting each solve from its
neighbor.  Individual failures are recorded on the affected grid point
rather than aborting the sweep.  ``find_threshold`` then brackets the
parameter value where the binding incentive constraint flips from the
cognitive type to the manual type (or back).  It bisects on which
constraint the first best violates, a sign change at equal first-best
earnings, and solves the constrained problem only at the bracket's ends.

``apply_ubi`` decomposes consumption as c-tilde = c-bar + ubi with the
uniform component entering feasibility through total consumption.  A
common planner undoes any uniform transfer one-for-one while interior,
so the c-tilde allocation is the no-transfer solution; the function
returns it once it has bounded the feasible transfer size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import SWEEP_PARAMS, AgentKind, EconomyConfig, validate_config, with_param
from .errors import ConfigError, DomainError, SolverError, ThresholdRangeError, UbiInfeasibleError
from .planner import (EPS_C, PlannerSolution, Regime, _first_best, _rejection,
                      solve_steady_state, violated_side)
from .wedges import compute_wedge_report

_FLIP_REGIMES = (Regime.COGNITIVE_BINDS, Regime.MANUAL_BINDS)
_SIDE = {AgentKind.COGNITIVE: Regime.COGNITIVE_BINDS, AgentKind.MANUAL: Regime.MANUAL_BINDS}


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at one grid value; metrics are nan when the solve failed."""

    value: float
    regime: str | None = None
    tau_k: float = math.nan
    tau_ai: float = math.nan
    tau_y_c: float = math.nan
    tau_y_m: float = math.nan
    wage_ratio: float = math.nan
    objective: float = math.nan
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _metrics(value: float, solution: PlannerSolution) -> SweepPoint:
    report = compute_wedge_report(solution)
    return SweepPoint(
        value=value,
        regime=solution.regime.value,
        tau_k=report.tau_k[AgentKind.COGNITIVE],
        tau_ai=report.tau_ai[AgentKind.COGNITIVE],
        tau_y_c=report.tau_y[AgentKind.COGNITIVE],
        tau_y_m=report.tau_y[AgentKind.MANUAL],
        wage_ratio=float(solution.wages_c[0] / solution.wages_m[0]),
        objective=solution.objective,
    )


def _failure(value: float, exc: Exception) -> SweepPoint:
    return SweepPoint(value, error=f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class SweepResult:
    param: str
    points: tuple[SweepPoint, ...]
    solutions: tuple[PlannerSolution | None, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.points)

    @property
    def n_failures(self) -> int:
        return sum(not p.ok for p in self.points)

    def flip_brackets(self) -> tuple[tuple[float, float], ...]:
        """Adjacent solved pairs whose binding side changes (either direction)."""
        flips = []
        flip_values = {r.value for r in _FLIP_REGIMES}
        for a, b in zip(self.points, self.points[1:]):
            if a.ok and b.ok and a.regime != b.regime \
                    and a.regime in flip_values and b.regime in flip_values:
                flips.append((a.value, b.value))
        return tuple(flips)

    @property
    def threshold_bracket(self) -> tuple[float, float] | None:
        """The flip interval when the sweep contains exactly one flip."""
        flips = self.flip_brackets()
        return flips[0] if len(flips) == 1 else None


def sweep(config: EconomyConfig, param: str, values) -> SweepResult:
    """Solve the stationary problem at each grid value of one parameter.

    The grid must be strictly increasing.  Every implied configuration is
    validated before any solving starts, so an out-of-range value fails
    fast instead of surfacing as a mid-sweep solver error.
    """
    grid = [float(v) for v in values]
    if len(grid) < 2:
        raise DomainError(f"sweep needs at least 2 grid values, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sweep grid must be strictly increasing")

    configs = [with_param(config, param, v) for v in grid]
    for v, cfg in zip(grid, configs):
        report = validate_config(cfg)
        if not report.ok:
            raise ConfigError(
                f"{param} = {v} gives an invalid economy: {'; '.join(report.messages())}"
            )

    points: list[SweepPoint] = []
    solutions: list[PlannerSolution | None] = []
    warm: PlannerSolution | None = None
    for v, cfg in zip(grid, configs):
        try:
            sol = solve_steady_state(cfg, warm=warm)
        except SolverError as exc:
            points.append(_failure(v, exc))
            solutions.append(None)
            continue
        points.append(_metrics(v, sol))
        solutions.append(sol)
        warm = sol
    return SweepResult(param=param, points=tuple(points), solutions=tuple(solutions))


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection bracket around a cognitive/manual regime flip."""

    param: str
    lo: float
    hi: float
    lo_regime: Regime
    hi_regime: Regime
    tol: float
    converged: bool
    iterations: int
    trace: tuple[tuple[float, str], ...]
    anomalies: tuple[tuple[float, str], ...]
    lo_solution: PlannerSolution
    hi_solution: PlannerSolution

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def find_threshold(config: EconomyConfig, param: str, lo: float, hi: float,
                   tol_param: float = 1e-3,
                   warm: tuple[PlannerSolution, PlannerSolution] | None = None) -> ThresholdResult:
    """Bisect [lo, hi] down to the regime flip, in either endpoint order.

    The flip is the sign change of ``violated_side`` at the first best,
    that is of the first-best earnings gap w_c l_c - w_m l_m.  Each probe
    is one first-best attempt warm-started from the bracket's lower end;
    probes are judged, never built into solutions, and the trace records
    the regime of the side each one takes.  ``warm``, a pair of solved
    steady states at ``lo`` and ``hi`` (a sweep's solutions on either side
    of its flip), warm-starts the ends' first bests; without it the first
    best at ``lo`` starts cold and the one at ``hi`` from it.  Both ends'
    first bests must violate a constraint, on different sides, otherwise
    ThresholdRangeError.  The final ends are then solved with their
    constraints, which gives the reported solutions and regimes; an end
    so close to the flip that its multiplier is below TOL_ICC reports
    none_bind.

    ``converged`` is False, with the bracket reached so far, when a probe's
    first best raises SolverError (recorded in ``anomalies``) or when the
    bracket cannot narrow further in floating point.
    """
    if param not in SWEEP_PARAMS:
        raise DomainError(
            f"unknown sweep parameter {param!r}; allowed: {sorted(SWEEP_PARAMS)}"
        )
    if tol_param <= 0.0:
        raise DomainError(f"tol_param must be positive, got {tol_param}")
    warm_lo, warm_hi = (None, None) if warm is None else warm
    if lo > hi:
        lo, hi, warm_lo, warm_hi = hi, lo, warm_hi, warm_lo
    lo, hi = float(lo), float(hi)
    if lo == hi:
        raise DomainError("bisection endpoints must differ")

    fb_lo = _first_best(with_param(config, param, lo), warm=warm_lo)
    fb_hi = _first_best(with_param(config, param, hi), warm=fb_lo if warm_hi is None else warm_hi)
    side_lo, side_hi = (
        _SIDE[violated_side(fb)] if _rejection(fb, ()) is not None else Regime.NONE_BIND
        for fb in (fb_lo, fb_hi)
    )
    trace = [(lo, side_lo.value), (hi, side_hi.value)]
    if Regime.NONE_BIND in (side_lo, side_hi) or side_lo == side_hi:
        raise ThresholdRangeError(
            f"endpoints must bind on different single types; got "
            f"{param}={lo} -> {side_lo.value}, {param}={hi} -> {side_hi.value}"
        )

    anomalies: list[tuple[float, str]] = []
    iterations = 0
    while hi - lo > tol_param:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot narrow any further
            break
        iterations += 1
        try:
            fb_mid = _first_best(with_param(config, param, mid), warm=fb_lo)
        except SolverError as exc:
            anomalies.append((mid, f"{type(exc).__name__}: {exc}"))
            break
        side = _SIDE[violated_side(fb_mid)]
        trace.append((mid, side.value))
        if side == side_lo:
            lo, fb_lo = mid, fb_mid
        else:
            hi, fb_hi = mid, fb_mid

    sol_lo = solve_steady_state(with_param(config, param, lo), warm=fb_lo)
    sol_hi = solve_steady_state(with_param(config, param, hi), warm=fb_hi)
    return ThresholdResult(
        param=param, lo=lo, hi=hi,
        lo_regime=sol_lo.regime, hi_regime=sol_hi.regime,
        tol=tol_param, converged=hi - lo <= tol_param, iterations=iterations,
        trace=tuple(trace), anomalies=tuple(anomalies),
        lo_solution=sol_lo, hi_solution=sol_hi,
    )


def apply_ubi(config: EconomyConfig, ubi: float) -> PlannerSolution:
    """Stationary solve with consumption decomposed as c-tilde = c-bar + ubi.

    Returns the solution in c-tilde terms, which is
    ``solve_steady_state(config)`` for every feasible ubi: the planner
    offsets the transfer one-for-one in c-bar, so the floor component of
    type h is ``c_tilde_h - ubi``.  Raises UbiInfeasibleError when the
    transfer leaves no room for a positive floor, i.e. ubi is not strictly
    below the smallest optimal c-tilde.
    """
    if not np.isfinite(ubi) or ubi < 0.0:
        raise DomainError(f"ubi must be a finite nonnegative number, got {ubi}")
    baseline = solve_steady_state(config)
    a = baseline.allocation
    c_min = min(float(a.c_c[0]), float(a.c_m[0]))
    if ubi >= c_min - 10.0 * EPS_C:
        raise UbiInfeasibleError(
            f"ubi = {ubi} leaves no interior floor: smallest optimal "
            f"consumption is {c_min:.6g}"
        )
    return baseline
