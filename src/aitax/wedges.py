"""Tax wedges implied by a planner solution, and the six sign claims.

Two equivalent routes to the intertemporal wedge on a capital stock:

* through consumption growth against the wealth return,
  tau = 1 - u'(c_t) / (beta * u'(c_{t+1}) * dFw/di), and
* through the multipliers, tau = -X^i / (lambda * dFw/di),

where X^i is the wage-ratio term the binding incentive constraint puts
into the stock FOC and dFw/di is the derivative of output plus
undepreciated stocks.  The two agree identically at any converged
solution; tests pin the agreement at 1e-8.

The intratemporal (labor) wedge is tau_y = 1 - nu'(l) / (w * u').

Sign claims, verified with margin TOL_SIGN per regime:

* cognitive binds: K out-earns AI in wealth returns (P1); the K wedge is
  positive and the AI wedge negative, both type-independent (P2); the
  cognitive labor wedge is negative, a marginal subsidy (P3);
* manual binds: the mirror image (P1p, P2p, P3p) with AI taxed,
  K subsidized, and manual labor subsidized.

Values inside the margin report "indeterminate", never "pass".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import AgentKind
from .errors import DomainError, OutOfHorizonError
from .planner import PlannerSolution, Regime, _now_next
from .preferences import nu_prime, u_prime
from .production import evaluate

TOL_SIGN = 1e-6

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INDETERMINATE = "indeterminate"
VERDICT_NOT_APPLICABLE = "not_applicable"

_STOCKS = ("k", "ai")


def intertemporal_wedge_formula(up_now, up_next, beta: float, wealth_return):
    """1 - u'(c_t) / (beta * u'(c_{t+1}) * wealth_return)."""
    return 1.0 - up_now / (beta * up_next * wealth_return)


def intratemporal_wedge_formula(nu_p, wage, up):
    """1 - nu'(l) / (w * u'(c))."""
    return 1.0 - nu_p / (wage * up)


def _check_stock(stock: str) -> None:
    if stock not in _STOCKS:
        raise DomainError(f"stock must be one of {_STOCKS}, got {stock!r}")


@dataclass(frozen=True)
class _WedgeTable:
    """Every wedge of one solution, from one pass over its periods.

    Transition t runs from period t to period t + 1; a steady state is the
    single transition from its one period to itself.
    """

    tau: dict[tuple[AgentKind, str], np.ndarray]  # per transition, by (type, stock)
    tau_mult: dict[str, np.ndarray]  # per transition, by stock
    fw: dict[str, np.ndarray]  # wealth return of each transition's arrival period
    lam: np.ndarray  # resource multiplier of each transition's arrival period
    tau_y: dict[AgentKind, np.ndarray]  # per period; nan where the type supplies no labor


def _wedge_table(solution: PlannerSolution) -> _WedgeTable:
    a, m = solution.allocation, solution.multipliers
    prefs = solution.config.prefs
    n = a.n_periods
    # the one technology evaluation stays on arrays: a power on an array can
    # round a last bit apart from one on a scalar
    ev = evaluate(solution.config.tech, a.eff_l_c[:n], a.eff_l_m[:n], a.k[:n], a.ai[:n])
    per_period = (a.c_c, a.c_m, a.l_c, a.l_m, solution.wages_c, solution.wages_m,
                  ev.fw_k, ev.fw_ai, m.x_k, m.x_ai, m.lam)
    if n == 1:
        # a steady state's one transition on numpy scalars: the bits of
        # 1-element arrays, without an array operation per value
        per_period = [v[0] for v in per_period]
    now, nxt = _now_next(n == 1)
    c_c, c_m, l_c, l_m, w_c, w_m, fw_k, fw_ai, x_k, x_ai, lam = per_period
    fw, x, lam = (nxt(fw_k), nxt(fw_ai)), (nxt(x_k), nxt(x_ai)), nxt(lam)
    up = (u_prime(prefs, c_c), u_prime(prefs, c_m))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_mult = [-x_s / (lam * fw_s) for x_s, fw_s in zip(x, fw)]
    values = (
        *(intertemporal_wedge_formula(now(up_h), nxt(up_h), prefs.beta, fw_s)
          for up_h in up for fw_s in fw),
        *tau_mult, *fw, lam,
        *(np.where(l_h > 0.0, intratemporal_wedge_formula(nu_prime(prefs, l_h), w_h, up_h),
                   math.nan)
          for l_h, w_h, up_h in zip((l_c, l_m), (w_c, w_m), up)),
    )
    if n == 1:
        values = np.array(values)[:, None]  # each a 1-element array again
    tau_k_c, tau_ai_c, tau_k_m, tau_ai_m, mult_k, mult_ai, fw_k, fw_ai, lam, tau_y_c, tau_y_m = (
        values)
    cog, man = AgentKind.COGNITIVE, AgentKind.MANUAL
    return _WedgeTable(
        tau={(cog, "k"): tau_k_c, (cog, "ai"): tau_ai_c,
             (man, "k"): tau_k_m, (man, "ai"): tau_ai_m},
        tau_mult={"k": mult_k, "ai": mult_ai},
        fw={"k": fw_k, "ai": fw_ai},
        lam=lam,
        tau_y={cog: tau_y_c, man: tau_y_m},
    )


def _transition(solution: PlannerSolution, t: int) -> int:
    """Index of transition t; a steady state's one transition answers any t."""
    n = solution.allocation.n_periods
    if n == 1:
        return 0
    if not 0 <= t < n - 1:
        raise OutOfHorizonError(
            f"transition {t} out of range for horizon with {n} periods"
        )
    return t


def _via_multipliers(table: _WedgeTable, stock: str, i: int) -> float:
    lam = float(table.lam[i])
    if lam <= 0.0:
        raise DomainError(f"resource multiplier must be positive, got {lam}")
    return float(table.tau_mult[stock][i])


def intertemporal_wedge(
    solution: PlannerSolution, h: AgentKind, stock: str, t: int = 0
) -> float:
    """Wedge on the t -> t+1 savings margin of type h into the given stock."""
    _check_stock(stock)
    i = _transition(solution, t)
    return float(_wedge_table(solution).tau[h, stock][i])


def intratemporal_wedge(solution: PlannerSolution, h: AgentKind, t: int = 0) -> float:
    """Labor wedge of type h in period t; nan when the type supplies no labor."""
    n = solution.allocation.n_periods
    if n > 1 and not 0 <= t < n:
        raise OutOfHorizonError(f"period {t} out of range for {n} periods")
    return float(_wedge_table(solution).tau_y[h][0 if n == 1 else t])


def wedge_via_multipliers(solution: PlannerSolution, stock: str, t: int = 0) -> float:
    """The same wedge computed as -X^i / (lambda * dFw/di) at the arrival period."""
    _check_stock(stock)
    i = _transition(solution, t)
    return _via_multipliers(_wedge_table(solution), stock, i)


@dataclass(frozen=True)
class PropositionCheck:
    """Verdict for one sign claim, with the quantities it was judged on."""

    key: str
    description: str
    verdict: str
    observed: dict[str, float]
    margin: float


@dataclass(frozen=True)
class WedgeReport:
    """All wedges of a solution plus the per-claim verdicts."""

    tau_k: dict[AgentKind, float]
    tau_ai: dict[AgentKind, float]
    tau_y: dict[AgentKind, float]
    tau_k_mult: float
    tau_ai_mult: float
    verdicts: dict[str, PropositionCheck]


def _sign_verdict(margin: float) -> str:
    if margin > TOL_SIGN:
        return VERDICT_PASS
    if margin < -TOL_SIGN:
        return VERDICT_FAIL
    return VERDICT_INDETERMINATE


def _na(key: str, description: str) -> PropositionCheck:
    return PropositionCheck(key, description, VERDICT_NOT_APPLICABLE, {}, math.nan)


_DESCRIPTIONS = {
    "P1": "traditional capital has the higher wealth return when cognitive binds",
    "P2": "positive K wedge, negative AI wedge, both type-independent",
    "P3": "cognitive labor wedge negative (marginal subsidy)",
    "P1p": "AI capital has the higher wealth return when manual binds",
    "P2p": "positive AI wedge, negative K wedge, both type-independent",
    "P3p": "manual labor wedge negative (marginal subsidy)",
}


def _judge(regime: Regime, table: _WedgeTable) -> dict[str, PropositionCheck]:
    verdicts = {key: _na(key, desc) for key, desc in _DESCRIPTIONS.items()}
    if regime is Regime.COGNITIVE_BINDS:
        taxed, subsidized, labor_kind = "k", "ai", AgentKind.COGNITIVE
        k1, k2, k3 = "P1", "P2", "P3"
    elif regime is Regime.MANUAL_BINDS:
        taxed, subsidized, labor_kind = "ai", "k", AgentKind.MANUAL
        k1, k2, k3 = "P1p", "P2p", "P3p"
    else:
        return verdicts

    fw = table.fw
    fw_margin = float(np.min(fw[taxed] - fw[subsidized]))
    verdicts[k1] = PropositionCheck(
        k1, _DESCRIPTIONS[k1], _sign_verdict(fw_margin),
        {"fw_k": float(fw["k"][-1]), "fw_ai": float(fw["ai"][-1])}, fw_margin,
    )

    tau = {s: table.tau[AgentKind.COGNITIVE, s] for s in _STOCKS}
    type_gap = max(
        float(np.max(np.abs(tau[s] - table.tau[AgentKind.MANUAL, s]))) for s in _STOCKS
    )
    sign_margin = min(float(np.min(tau[taxed])), -float(np.max(tau[subsidized])))
    verdict2 = _sign_verdict(sign_margin)
    if verdict2 == VERDICT_PASS and type_gap > TOL_SIGN:
        verdict2 = VERDICT_FAIL
    verdicts[k2] = PropositionCheck(
        k2, _DESCRIPTIONS[k2], verdict2,
        {
            "tau_k": float(np.min(tau["k"])),
            "tau_ai": float(np.min(tau["ai"])),
            "type_gap": type_gap,
        },
        sign_margin,
    )

    tau_y = float(np.max(table.tau_y[labor_kind]))
    verdicts[k3] = PropositionCheck(
        k3, _DESCRIPTIONS[k3], _sign_verdict(-tau_y), {"tau_y": tau_y}, -tau_y,
    )
    return verdicts


def verify_propositions(solution: PlannerSolution) -> dict[str, PropositionCheck]:
    """Judge the six sign claims; only the binding regime's side is applicable.

    Finite-horizon solutions are judged on the worst period/transition.
    """
    return _judge(solution.regime, _wedge_table(solution))


def compute_wedge_report(solution: PlannerSolution) -> WedgeReport:
    """Wedges at the first transition/period plus all claim verdicts."""
    table = _wedge_table(solution)
    return WedgeReport(
        tau_k={h: float(table.tau[h, "k"][0]) for h in AgentKind},
        tau_ai={h: float(table.tau[h, "ai"][0]) for h in AgentKind},
        tau_y={h: float(table.tau_y[h][0]) for h in AgentKind},
        tau_k_mult=_via_multipliers(table, "k", 0),
        tau_ai_mult=_via_multipliers(table, "ai", 0),
        verdicts=_judge(solution.regime, table),
    )
