"""Constrained-efficient planner: first best, steady state, finite horizon.

The planner maximizes population-weighted lifetime utility subject to the
resource constraint and, when they bind, incentive-compatibility
constraints (each type must prefer its own bundle to mimicking the other's
labor income).  A mimicking type supplies lt = l_other * w, the other
type's labor times a wage ratio w, and a binding constraint adds
mu * nu'(lt) * dlt/dq to the FOC of each q in (l_c, l_m, K, AI): the
X-terms of the stock FOCs, which generate the capital and AI wedges, and
the incentive terms of the labor FOCs.  ``_chain_terms`` derives them
once per point, one ``_Mimicry`` record per type, and the KKT rows, the
slacks, a solution's multipliers and the exact Jacobian all read it.

Solution method: active-set Newton.  Solve without constraints; if an
incentive constraint is violated impose it as an equality with its
multiplier as an unknown, and accept the first regime that converges with
an admissible multiplier and a slack other constraint.  Regimes are tried
most-violated first, then the other single constraint, then both.  A warm
start is one stationary point; when its multipliers bind exactly one
constraint, as a sweep's previous point's do, it predicts its regime, the
ladder's first rung: solved from that point alone, before any first best,
and accepted when admissible.  When it fails the first best and the
regimes above follow, and no regime runs the same Newton twice.

One KKT kernel (``_kkt``) writes each first-order condition once, for the
steady state and the finite-horizon path alike: a steady state is the path
whose next period is itself.  The Newton residuals and the public
``foc_residuals`` both evaluate it, one point per call.  Each kernel call
evaluates the technology once: ``evaluate`` gives output and the marginal
products, wages are those times z, and ``mpl_ratio_gradient`` reads the
same record.  One exact Jacobian is written the same way, for both
(``_jacobian_entries``): each partial is one straight-line entry
expression, from the closed-form Hessians of the technology and of the
wage ratio (each symmetric entry once), run on a steady state's Python
floats or on a path's per-period arrays, and only the rows that link a
period to the next have entries in the next period.  ``_entries`` lists
where they lie, only those that can be nonzero; ``_jacobian_fn`` turns
a steady state's into its m x m array and scatters a path's into band
storage.  It costs no residual call, and nothing in the solver takes a
forward difference.  Each point Newton accepts costs one kernel pass:
the residual keeps its pass (``_LastPass``), and the Jacobian at that
point, and the judging of the vector Newton converges to, read it.  A
steady state's Newton residual and ``foc_residuals`` run on Python
floats, which give the bits of numpy scalars; where float arithmetic
raises, ``foc_residuals`` runs again on numpy scalars, which give inf or
nan there.

A regime's steady state gets at most two Newton starts, the warm point and
then one base start (the first best's vector, or for the first best a cold
start from a capital presolve), and fails fast when neither converges; a
presolve that finds no interior stocks refuses the economy, naming the AI
corner where it proves its stocks sit there, else where it stopped.  A
converged vector is judged from its multipliers and lifetime slacks (the
kept pass); only the attempt a solver returns is built into a
PlannerSolution with its assumption report, KKT residuals and objective,
and a steady state's keeps the point of the first best it was judged from,
when it solved one.  All solves are deterministic: no randomness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .economy import (
    AgentKind,
    Allocation,
    EconomyConfig,
    SolveMode,
    require_valid,
)
from .errors import (
    ConfigError,
    DomainError,
    NoInteriorSolutionError,
    NoRegimeFoundError,
    SolverError,
)
from .newton import Band, newton_solve
from .preferences import nu_eval, nu_prime, nu_second, u_eval, u_prime, u_second
from .production import (
    PAIRS,
    AssumptionReport,
    TechEvaluation,
    check_assumptions,
    evaluate,
    hessian,
    mpl_ratio_gradient,
    mpl_ratio_hessian,
)

TOL_NEWTON = 1e-10
TOL_ICC = 1e-8
EPS_C = 1e-10

_MU_INIT_FRACTION = 0.05

# lower bounds of (c_c, c_m, l_c, l_m, k, ai, lam) in the Newton unknowns
_LOWER = (EPS_C, EPS_C, 1e-10, 1e-10, 1e-10, 1e-10, 1e-12)

# names of the seven rows the KKT kernel returns, in order
_ROWS = ("c_c", "c_m", "l_c", "l_m", "k", "ai", "feasibility")


class Regime(str, enum.Enum):
    NONE_BIND = "none_bind"
    COGNITIVE_BINDS = "cognitive_binds"
    MANUAL_BINDS = "manual_binds"
    BOTH_BIND = "both_bind"


# the incentive constraints imposed as equalities in each regime
_BINDING = {
    Regime.NONE_BIND: (),
    Regime.COGNITIVE_BINDS: (AgentKind.COGNITIVE,),
    Regime.MANUAL_BINDS: (AgentKind.MANUAL,),
    Regime.BOTH_BIND: (AgentKind.COGNITIVE, AgentKind.MANUAL),
}
# a solution's regime, keyed by the types whose multiplier exceeds TOL_ICC
_REGIME = {active: regime for regime, active in _BINDING.items()}


def _regime(mu_c: float, mu_m: float) -> Regime:
    """The regime of multipliers mu_c, mu_m: the types whose mu exceeds TOL_ICC bind."""
    return _REGIME[tuple(kind for kind, mu in zip(AgentKind, (mu_c, mu_m)) if mu > TOL_ICC)]


@dataclass(frozen=True)
class Multipliers:
    """Shadow values attached to a planner solution.

    ``lam`` is the per-period resource multiplier in current value; mu_c and
    mu_m are the lifetime incentive-constraint multipliers.  ``x_k`` and
    ``x_ai`` are the wage-ratio terms appearing in the stock FOCs, and
    ``y_term`` the wage-ratio term in the binding type's own-labor FOC
    (zero when nothing binds).
    """

    lam: np.ndarray
    mu_c: float
    mu_m: float
    x_k: np.ndarray
    x_ai: np.ndarray
    y_term: np.ndarray


@dataclass(frozen=True)
class PlannerSolution:
    config: EconomyConfig
    regime: Regime
    allocation: Allocation
    multipliers: Multipliers
    wages_c: np.ndarray
    wages_m: np.ndarray
    slack_c: float
    slack_m: float
    objective: float
    foc_residual: float
    assumptions: AssumptionReport
    warnings: tuple[str, ...] = ()
    # the stationary point (c_c, ..., lam, mu_c, mu_m) of the first best a
    # steady state was judged from, kept in memory to start a bisection
    # end's first best; never serialized, and None for a path and for a
    # steady state solved in the regime its warm start predicted
    first_best: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def stationary(self) -> bool:
        return self.allocation.n_periods == 1


# _Mimicry and _ChainTerms take slots and are not frozen: each Newton
# residual builds three of them, and a frozen __init__ costs about twice as much
@dataclass(slots=True)
class _Mimicry:
    """One type's mimicking labor lt = l_other w at a point, the labor that
    earns the other type's income, with first partials in q = (l_c, l_m, K, AI)."""

    w: object  # z_m F_Lm / (z_c F_Lc) for the cognitive type, its inverse for the manual
    dw: tuple  # dw/dq
    lt: object
    d_lt: tuple  # dlt/dq
    nup: object  # nu'(lt)
    d_nu: tuple  # nu'(lt) dlt/dq, the q-partials of the type's slack beyond its own disutility


@dataclass(slots=True)
class _ChainTerms:
    """Wage-ratio pieces of the FOCs at one point (scalar or per-period
    arrays), each type's mimicking record among them, derived once."""

    ev: TechEvaluation
    grad: tuple  # the wage ratio F_Lc / F_Lm's gradient in (L_c, L_m, K, AI)
    el_c: object  # effective labor pi * l * z
    el_m: object
    w_c: object  # competitive wages z * F_L
    w_m: object
    ratio: object  # F_Lc / F_Lm
    d_ratio: tuple  # its gradient in q = (l_c, l_m, K, AI)
    mimic: tuple  # each type's _Mimicry, cognitive first
    # mu_c d_nu_c + mu_m d_nu_m over q: the l_c and l_m rows' incentive
    # terms, then the X-terms of the K and AI rows
    incentive: tuple


def _mimicry(prefs, l_other, other: int, w, dw: tuple) -> _Mimicry:
    """The record of lt = l_other w, l_other being unknown ``other`` of q."""
    lt = l_other * w
    d_lt = [l_other * v for v in dw]
    d_lt[other] += w
    nup = nu_prime(prefs, lt)
    return _Mimicry(w, dw, lt, tuple(d_lt), nup, tuple([nup * v for v in d_lt]))


def _chain_terms(config: EconomyConfig, l_c, l_m, k, ai, mu_c, mu_m) -> _ChainTerms:
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z
    el_c = pi_c * l_c * z_c
    el_m = pi_m * l_m * z_m
    ev = evaluate(config.tech, el_c, el_m, k, ai)

    ratio = ev.f_lc / ev.f_lm
    grad = mpl_ratio_gradient(config.tech, ev, el_c, el_m, k, ai)
    d_ratio = (grad[0] * (pi_c * z_c), grad[1] * (pi_m * z_m), *grad[2:])
    zr = z_m / z_c
    w = zr / ratio
    slope = -w / ratio
    cognitive = _mimicry(config.prefs, l_m, 1, w, tuple([slope * g for g in d_ratio]))
    manual = _mimicry(config.prefs, l_c, 0, ratio / zr, tuple([g / zr for g in d_ratio]))
    return _ChainTerms(
        ev=ev, grad=grad, el_c=el_c, el_m=el_m, w_c=ev.f_lc * z_c, w_m=ev.f_lm * z_m,
        ratio=ratio, d_ratio=d_ratio, mimic=(cognitive, manual),
        incentive=tuple([mu_c * a + mu_m * b for a, b in zip(cognitive.d_nu, manual.d_nu)]),
    )


def _flow_slacks(prefs, ct_c, ct_m, l_c, l_m, mimic: tuple):
    u_c, u_m = u_eval(prefs, ct_c), u_eval(prefs, ct_m)
    slack_c = (u_c - nu_eval(prefs, l_c)) - (u_m - nu_eval(prefs, mimic[0].lt))
    slack_m = (u_m - nu_eval(prefs, l_m)) - (u_c - nu_eval(prefs, mimic[1].lt))
    return slack_c, slack_m


_ITSELF = (lambda v: v), (lambda v: v)
_SHIFTED = (lambda v: v[..., :-1]), (lambda v: v[..., 1:])


def _now_next(stationary: bool):
    """Views without a path's last period (``now``) and without its first
    (``nxt``), periods on the last axis; a steady state's next period is
    itself."""
    return _ITSELF if stationary else _SHIFTED


def _kkt(config: EconomyConfig, c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m):
    """KKT rows and flow incentive slacks at a candidate.

    A path has one stock more than periods: arrays of n periods whose ``k``
    and ``ai`` hold the n + 1 stocks K_0 .. K_n.  A steady state is the
    path whose next period is itself: one point, on scalars.  So every row
    is written once, through ``_now_next``.  The Newton residual hands a
    steady state Python floats, on which a residual costs about a third
    less than on numpy scalars (and a 1-point array five to eight times a
    scalar), and so does ``foc_residuals``; numpy scalars give the same
    bits.  On floats, a point whose arithmetic overflows or divides by zero
    raises OverflowError or ZeroDivisionError where numpy would give inf.
    The stock rows are the Euler equations divided through by next
    period's lam, which makes a steady state's lam/lam exactly 1.  Returns
    the seven rows named in ``_ROWS``, the cognitive and manual flow
    slacks, and the chain terms.
    """
    prefs, tech = config.prefs, config.tech
    pi_c, pi_m = config.cognitive.pi, config.manual.pi
    beta = prefs.beta
    now, nxt = _now_next(isinstance(lam, float))  # numpy scalars are floats too
    k_now, ai_now = now(k), now(ai)
    ch = _chain_terms(config, l_c, l_m, k_now, ai_now, mu_c, mu_m)
    ev = ch.ev
    lam_ratio = now(lam) / nxt(lam)
    pull_c, pull_m, x_k, x_ai = ch.incentive
    rows = [
        u_prime(prefs, c_c) * (pi_c + mu_c - mu_m) - lam * pi_c,
        u_prime(prefs, c_m) * (pi_m + mu_m - mu_c) - lam * pi_m,
        -(pi_c + mu_c) * nu_prime(prefs, l_c) + pull_c + lam * pi_c * ch.w_c,
        -(pi_m + mu_m) * nu_prime(prefs, l_m) + pull_m + lam * pi_m * ch.w_m,
        lam_ratio - beta * nxt(ev.fw_k) - beta * nxt(x_k) / nxt(lam),
        lam_ratio - beta * nxt(ev.fw_ai) - beta * nxt(x_ai) / nxt(lam),
        ev.y - pi_c * c_c - pi_m * c_m
        - (nxt(k) - k_now + tech.delta_k * k_now)
        - (nxt(ai) - ai_now + tech.delta_ai * ai_now)
        - config.g,
    ]
    slack_c, slack_m = _flow_slacks(prefs, c_c, c_m, l_c, l_m, ch.mimic)
    return rows, slack_c, slack_m, ch


def _lifetime(beta: float, flow) -> float:
    """Discounted value of a per-period flow: flow / (1 - beta) for a steady
    state (a scalar), sum_t beta**t * flow_t for a path."""
    if np.ndim(flow) == 0:
        return float(flow) * (1.0 / (1.0 - beta))
    return float(np.dot(beta ** np.arange(len(flow)), flow))


def _objective(config: EconomyConfig, alloc: Allocation) -> float:
    """Population-weighted lifetime utility of an allocation.  A steady
    state's runs on numpy scalars: the bits of Python floats, and inf or
    nan where a stored allocation overflows them."""
    prefs = config.prefs
    per_period = (alloc.c_c, alloc.c_m, alloc.l_c, alloc.l_m)
    if alloc.n_periods == 1:
        per_period = [v[0] for v in per_period]
    c_c, c_m, l_c, l_m = per_period
    flows = config.cognitive.pi * (u_eval(prefs, c_c) - nu_eval(prefs, l_c)) + config.manual.pi * (
        u_eval(prefs, c_m) - nu_eval(prefs, l_m)
    )
    return _lifetime(prefs.beta, flows)


def _label(active: tuple) -> str:
    return "+".join(k.value for k in active) or "none"


class _Layout:
    """Where each unknown of one regime's Newton system sits in the vector x.

    A steady state (``ends`` is None) has seven scalars, (c_c, c_m, l_c,
    l_m, k, ai, lam).  An n-period path with boundary stocks ``ends =
    (k_0, ai_0, k_n, ai_n)`` has per-period consumptions, labors and lam,
    and the interior stocks K_1 .. K_{n-1} and AI_1 .. AI_{n-1}.  One
    multiplier per active constraint, cognitive first, closes the vector.
    ``entries`` lists where the exact Jacobian's entries lie (``_entries``):
    a steady state keeps each one's cell of its m x m matrix, and a path
    its Newton ``band`` (``_band``), None for a steady state.
    """

    def __init__(self, active: tuple, *, n: int = 1, ends=None):
        self.active = active
        self.n = n
        self.ends = ends
        self.stationary = ends is None
        self.sizes = (1,) * 7 if self.stationary else (n, n, n, n, n - 1, n - 1, n)
        head = sum(self.sizes)
        self.mu_at = tuple(
            head + active.index(kind) if kind in active else None
            for kind in (AgentKind.COGNITIVE, AgentKind.MANUAL)
        )
        self.entries = _entries(len(active), not self.stationary)
        if self.stationary:
            m = head + len(active)
            # each entry's cell of the flattened m x m matrix
            self.cells = np.array([row * m + unknown for _, row, unknown in self.entries])
            self.band = self.stored = None
        else:
            self.band, self.stored = self._band()

    def unpack(self, x: np.ndarray) -> tuple:
        """The kernel's candidate (c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m):
        Python floats for a steady state, per-period arrays for a path."""
        if self.stationary:
            x = x.tolist()
        mu_c, mu_m = (0.0 if i is None else x[i] for i in self.mu_at)
        if self.stationary:
            return (*x[:7], mu_c, mu_m)
        n = self.n
        k_0, ai_0, k_n, ai_n = self.ends
        k = np.concatenate(([k_0], x[4 * n : 5 * n - 1], [k_n]))
        ai = np.concatenate(([ai_0], x[5 * n - 1 : 6 * n - 2], [ai_n]))
        return (x[:n], x[n : 2 * n], x[2 * n : 3 * n], x[3 * n : 4 * n], k, ai,
                x[6 * n - 2 : 7 * n - 2], mu_c, mu_m)

    def _band(self) -> tuple[Band, np.ndarray]:
        """The path's Newton band, and which (entry, period) slots of the
        entries ``_jacobian_fn`` writes (``self.entries``, each over the n
        periods) it stores, in order: none whose row or unknown does not
        exist (K_0, K_n, an Euler row of the last period).

        Block s holds period s's c_c, c_m, l_c, l_m, K_s, AI_s and lam_s,
        each with the Newton row of its kind and period, except that the
        Euler rows linking s - 1 to s sit with K_s and AI_s: so a row
        touches the blocks next to its own only, and period 0's empty
        stock slots are padding.  The multipliers are the border.
        """
        n, active = self.n, len(self.active)
        head = 7 * n - 2
        kind = np.repeat(np.arange(7), self.sizes)
        period = np.concatenate([np.arange(n)] * 4 + [np.arange(1, n)] * 2 + [np.arange(n)])
        # each kind's unknown of each period (-1: none)
        at = np.full((7, n + 1), -1)
        at[kind, period] = np.arange(head)
        mus = np.repeat(head + np.arange(active)[:, None], n, axis=1)
        row = np.concatenate([at[:, :n], mus])
        row[4:6] = at[4:6, 1:]
        # each kind's unknown, then each multiplier, in a period (lag 0) and the next (lag 1)
        unknown = np.stack([np.concatenate([at[:, :n], mus]), np.concatenate([at[:, 1:], mus])])
        lag, r, c = np.array(self.entries).T
        rows, owners = row[r].ravel(), unknown[lag, c].ravel()
        stored = np.flatnonzero((rows >= 0) & (owners >= 0))
        return Band(head + active, rows[stored], owners[stored], at[:, :n].T), stored

    def lower(self) -> np.ndarray:
        return np.concatenate([np.repeat(_LOWER, self.sizes), np.full(len(self.active), -np.inf)])

    def start(self, point: tuple) -> np.ndarray:
        """Start vector repeating a stationary point (c_c, c_m, l_c, l_m, k,
        ai, lam, mu_c, mu_m).

        An active constraint's multiplier is carried over when positive and
        otherwise seeded with a small positive guess.
        """
        c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m = point
        head = tuple(float(v) for v in (c_c, c_m, l_c, l_m, k, ai, lam))
        stored = {AgentKind.COGNITIVE: mu_c, AgentKind.MANUAL: mu_m}
        mus = [stored[kind] if stored[kind] > 0.0 else _MU_INIT_FRACTION * 0.5
               for kind in self.active]
        return np.concatenate([np.repeat(head, self.sizes), np.asarray(mus, dtype=float)])


@dataclass(frozen=True)
class _Attempt:
    """A converged Newton vector, judged before anything is built from it.

    ``point`` is the kernel's candidate (c_c, c_m, l_c, l_m, k, ai, lam,
    mu_c, mu_m), Python floats for a steady state, and ``chain`` its chain
    terms; the slacks are lifetime values.  All of it comes from the pass
    the residual made at the vector (``_LastPass``).  That is all
    admissibility and ``violated_side`` read, and ``point`` is what a warm
    start repeats; ``_build``
    turns the one attempt a solver returns into a solution.
    """

    layout: _Layout
    x: np.ndarray
    point: tuple
    chain: _ChainTerms
    mu_c: float
    mu_m: float
    slack_c: float
    slack_m: float

    @property
    def stationary(self) -> bool:
        return self.layout.stationary


class _LastPass:
    """What a residual's kernel pass gave at the last vector it evaluated,
    keyed by the vector's bytes.

    Newton takes the Jacobian at each point it accepts, and the solver
    judges the point it converges to; both read the pass kept at that
    vector instead of making one of their own, so each accepted point
    costs one pass.
    """

    def __init__(self):
        self.key = self.value = None

    def keep(self, x: np.ndarray, value) -> None:
        self.key, self.value = x.tobytes(), value

    def at(self, x: np.ndarray):
        """The value kept at ``x`` when it is the kept vector, else None."""
        return self.value if self.key == x.tobytes() else None


def _judge(config: EconomyConfig, layout: _Layout, x: np.ndarray,
           last: _LastPass | None = None) -> _Attempt:
    """The attempt at a converged Newton vector: read from the residual's
    pass that ``last`` kept at ``x``, else one KKT kernel call."""
    point = layout.unpack(x)
    kept = last and last.at(x)
    flow_c, flow_m, ch = _kkt(config, *point)[1:] if kept is None else kept
    beta = config.prefs.beta
    return _Attempt(layout=layout, x=x, point=point, chain=ch,
                    mu_c=float(point[7]), mu_m=float(point[8]),
                    slack_c=_lifetime(beta, flow_c), slack_m=_lifetime(beta, flow_m))


def _steady_point(warm: PlannerSolution | tuple | None) -> tuple | None:
    """The stationary point (c_c, ..., lam, mu_c, mu_m) a public warm start
    repeats: a steady state's, or the point itself; None for none and for a
    path, which no steady state repeats."""
    if warm is None or isinstance(warm, tuple):
        return warm
    if not warm.stationary:
        return None
    a, m = warm.allocation, warm.multipliers
    return (a.c_c[0], a.c_m[0], a.l_c[0], a.l_m[0], a.k[0], a.ai[0], m.lam[0], m.mu_c, m.mu_m)


# what Python floats raise where numpy arithmetic gives inf
_FLOAT_ERRORS = (ZeroDivisionError, OverflowError)


def _residual_fn(config: EconomyConfig, layout: _Layout, last: _LastPass | None = None):
    """Newton residual at one point: the seven KKT rows, then each active
    incentive slack.

    Stationary slack rows stay in flow units; a path's are lifetime slacks.
    A steady state's point whose float arithmetic raises (an overflow, a
    division by zero) has an all-inf residual, the non-finite one Newton
    takes for a point outside the domain.  Each pass is kept in ``last``
    when given.
    """
    imposed = tuple(kind in layout.active for kind in (AgentKind.COGNITIVE, AgentKind.MANUAL))

    def f(x: np.ndarray) -> np.ndarray:
        try:
            rows, slack_c, slack_m, ch = _kkt(config, *layout.unpack(x))
        except _FLOAT_ERRORS:
            return np.full(len(x), np.inf)
        if last is not None:
            last.keep(x, (slack_c, slack_m, ch))
        slacks = [s for s, on in zip((slack_c, slack_m), imposed) if on]
        if layout.stationary:
            return np.array(rows + slacks)
        return np.concatenate(rows + [[_lifetime(config.prefs.beta, s)] for s in slacks])

    return f


# for each labor input i of q = (l_c, l_m, K, AI), each (n, j) whose pair
# ``PAIRS[n]`` is (i, j) read either way, (i, i) twice: the second partials
# of l_i w(q) add dw/dq_j to entry n
_HOLDING = tuple(tuple((n, b) for n, pair in enumerate(PAIRS) for a, b in (pair, pair[::-1])
                       if a == i) for i in (0, 1))


def _outer(a, b, c, e) -> tuple:
    """The ten entries of v v' for v = (a, b, c, e), in ``production.PAIRS`` order."""
    return (a * a, a * b, a * c, a * e, b * b, b * c, b * e, c * c, c * e, e * e)


def _entries(active: int, path: bool) -> list:
    """Where the entries of ``_jacobian_entries`` lie, in its order, as
    (lag, row, unknown): rows and unknowns by kind, (c_c, c_m, l_c, l_m, K,
    AI, lam), then the ``active`` multipliers (a multiplier's row is its
    slack's); lag 1 is the row's next period, a steady state's itself.
    Only entries that can be nonzero are listed; a path adds its Euler
    rows' own lam and its feasibility row's next stocks.
    """
    out = [(0, 0, 0), (0, 0, 6), (0, 1, 1), (0, 1, 6)]
    out += [(0, row, c) for row in (2, 3) for c in range(2, 7)]
    out += [(0, 6, c) for c in range(6)]
    out += [(1, row, c) for row in (4, 5) for c in range(2, 7)]
    if path:
        out += [(0, 4, 6), (0, 5, 6), (1, 6, 4), (1, 6, 5)]
    for mu in range(7, 7 + active):
        out += [(0, row, mu) for row in range(6)] + [(0, mu, c) for c in range(6)]
    return out


def _jacobian_entries(config: EconomyConfig, active: tuple, path: bool,
                      c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m, ch: _ChainTerms) -> list:
    """The exact Jacobian's entries at a candidate, in the order of
    ``_entries(len(active), path)``: on a steady state's Python floats, or
    on a path's per-period arrays (an Euler row, which links a period to
    the next, has one period fewer).  ``ch`` holds the candidate's chain
    terms.  Each partial is one entry expression, written once for both.

    With q = (l_c, l_m, K, AI), a type's mimicking labor is the other
    type's labor times a wage ratio w(q): lt_c = l_m z_m F_Lm / (z_c F_Lc)
    and lt_m = l_c z_c F_Lc / (z_m F_Lm).  Its disutility nu(lt) enters
    the type's slack and, times its multiplier, the Lagrangian whose
    q-partials the labor rows are (and the stock rows, divided by -lam /
    beta).  Its first partials, a slack row, its multiplier's column and the
    X-terms, are the chain terms' record.  The q block is lam d2F/dq2 plus
    each active mu times d2 nu(lt)/dq2, from the closed-form Hessians of
    the technology and of the wage ratio, each symmetric entry once, for
    both types in q's order.  The consumption rows take u'' and the labor
    rows' own disutility nu''.  The Euler row linking t to t + 1 takes -beta /
    lam_{t+1} times period t + 1's q block, and beta X_{t+1} /
    lam_{t+1}**2 in lam_{t+1}.  A path's K_{t+1} - K_t and lam_t /
    lam_{t+1}, which are 0 and 1 in a steady state, add 1 and -1 in K_t
    and K_{t+1} to feasibility, and 1 / lam_{t+1} and -lam_t /
    lam_{t+1}**2 in lam_t and lam_{t+1} to the Euler row.
    """
    prefs, tech, beta = config.prefs, config.tech, config.prefs.beta
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z
    d_c, d_m = pi_c * z_c, pi_m * z_m  # d(effective labor)/d(labor)
    dd = _outer(d_c, d_m, 1.0, 1.0)
    now, nxt = _now_next(not path)
    k, ai = now(k), now(ai)
    ev, el_c, el_m = ch.ev, ch.el_c, ch.el_m
    f_lc, f_lm = ev.f_lc * d_c, ev.f_lm * d_m
    # the q block: lam d2F/dq2, then each active mu times d2 nu(lt)/dq2
    h = [lam * a * e for a, e in zip(dd, hessian(tech, ev, el_c, el_m, k, ai))]
    eu = -beta / nxt(lam)  # an Euler row's factor on next period's partials
    columns = []  # each active multiplier's column, then its slack's row
    if active:
        up_c, up_m = u_prime(prefs, c_c), u_prime(prefs, c_m)
        ratio, zr, g_q = ch.ratio, z_m / z_c, ch.d_ratio
        hr = [a * e for a, e in zip(dd, mpl_ratio_hessian(tech, ev, ch.grad, el_c, el_m, k, ai))]
    for kind in active:
        # the type's mimicking record, and the second partials of its w
        if kind is AgentKind.COGNITIVE:  # w = zr / ratio
            mu, own, other, signs, mim = mu_c, 0, 1, (up_c, -up_m), ch.mimic[0]
            bend, twice = mim.w / ratio, 2.0 / ratio
            d2w = [bend * (twice * gg - e) for gg, e in zip(_outer(*g_q), hr)]
        else:  # w = ratio / zr
            mu, own, other, signs, mim = mu_m, 1, 0, (-up_c, up_m), ch.mimic[1]
            d2w = [e / zr for e in hr]
        l_other = (l_c, l_m)[other]
        d2_lt = [l_other * v for v in d2w]
        for n, j in _HOLDING[other]:
            d2_lt[n] += mim.dw[j]
        nus = nu_second(prefs, mim.lt)
        h = [q + mu * (nus * a + mim.nup * e) for q, a, e in zip(h, _outer(*mim.d_lt), d2_lt)]
        slack = [*signs, *mim.d_nu]
        # not in place: on a path the entry is the record's array
        slack[2 + own] = slack[2 + own] - nu_prime(prefs, (l_c, l_m)[own])
        columns += slack[:4] + [eu * nxt(slack[4]), eu * nxt(slack[5])] + slack
    q00, q01, q02, q03, q11, q12, q13, q22, q23, q33 = h
    stock_k, stock_ai = ev.f_k - tech.delta_k, ev.f_ai - tech.delta_ai
    lam_k = lam_ai = 0.0  # the Euler rows in next period's lam
    if active:
        x_k, x_ai = ch.incentive[2:]
        lam_k, lam_ai = beta / nxt(lam) ** 2 * nxt(x_k), beta / nxt(lam) ** 2 * nxt(x_ai)
    if path:  # K_{t+1} - K_t and lam_t / lam_{t+1}
        stock_k, stock_ai = stock_k + 1.0, stock_ai + 1.0
        tilt = now(lam) / nxt(lam) ** 2
        lam_k, lam_ai = lam_k - tilt, lam_ai - tilt
    values = [
        u_second(prefs, c_c) * (pi_c + mu_c - mu_m), -pi_c,
        u_second(prefs, c_m) * (pi_m + mu_m - mu_c), -pi_m,
        q00 - (pi_c + mu_c) * nu_second(prefs, l_c), q01, q02, q03, f_lc,
        q01, q11 - (pi_m + mu_m) * nu_second(prefs, l_m), q12, q13, f_lm,
        -pi_c, -pi_m, f_lc, f_lm, stock_k, stock_ai,
        eu * nxt(q02), eu * nxt(q12), eu * nxt(q22), eu * nxt(q23), lam_k,
        eu * nxt(q03), eu * nxt(q13), eu * nxt(q23), eu * nxt(q33), lam_ai,
    ]
    if path:
        values += [1.0 / nxt(lam), 1.0 / nxt(lam), -1.0, -1.0]
    return values + columns


def _jacobian_fn(config: EconomyConfig, layout: _Layout, last: _LastPass | None = None):
    """Exact Jacobian of the Newton residual (``_residual_fn``) at one
    point: the m x m matrix for a steady state, band storage for a path.
    At the vector whose pass ``last`` kept it reads that pass's chain
    terms (technology evaluation and ratio gradient); at any other it
    makes its own.  A steady state's point whose float arithmetic raises
    has an all-nan matrix, which Newton refuses to step on.

    The entries are ``_jacobian_entries``.  A steady state's floats
    become its m x m array.  A path's are stacked, one row over the
    periods each and each slack row times beta**t (a path's lifetime
    slack row sums them), and scattered into band storage in one step.
    """
    m = 7 + len(layout.active)
    path = not layout.stationary
    now = _now_next(layout.stationary)[0]
    if path:
        n, band, stored = layout.n, layout.band, layout.stored
        discount = config.prefs.beta ** np.arange(n)
        # the rows that link a period to the next have one period fewer
        periods = [n - 1 if row in (4, 5) else n for _, row, _ in layout.entries]
        slacks = [i for i, (_, row, _) in enumerate(layout.entries) if row >= 7]

    def jac(x: np.ndarray) -> np.ndarray:
        c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m = point = layout.unpack(x)
        kept = last and last.at(x)
        try:
            ch = kept[2] if kept else _chain_terms(config, l_c, l_m, now(k), now(ai), mu_c, mu_m)
            values = _jacobian_entries(config, layout.active, path, *point, ch)
        except _FLOAT_ERRORS:
            return np.full((m, m), np.nan)
        if not path:
            j = np.zeros(m * m)
            j[layout.cells] = values
            return j.reshape(m, m)
        stack = np.zeros((len(values), n))
        for row, value, size in zip(stack, values, periods):
            row[:size] = value
        stack[slacks] *= discount
        storage = np.zeros(band.size)
        storage[band.entry_at] = stack.ravel()[stored]
        return storage

    return jac


def _newton(config: EconomyConfig, layout: _Layout, starts) -> _Attempt:
    """Newton from each start in turn; returns the first converged vector, judged.

    ``starts`` may be a generator: a start is then only built when every
    earlier one failed.
    """
    last = _LastPass()
    f = _residual_fn(config, layout, last)
    jac = _jacobian_fn(config, layout, last)
    lower = layout.lower()
    for tried, x0 in enumerate(starts, 1):
        # the fraction-to-boundary rule needs every start strictly inside the bounds
        res = newton_solve(f, np.maximum(x0, lower + 1e-12), tol=TOL_NEWTON, lower=lower,
                           jac=jac, band=layout.band)
        if res.converged:
            return _judge(config, layout, res.x, last)
    raise NoInteriorSolutionError(
        f"{_label(layout.active)}: Newton did not converge from {tried} start(s) "
        f"(last residual {res.residual_norm:.3e})"
    )


# the capital presolve's AI at or below which a falling AI row is checked
# once for the corner: AI at its floor, the K row solved
_CORNER_AI = 1e-8


def _cold_start(config: EconomyConfig) -> np.ndarray:
    """The first best's start without a warm one: labor 0.5, the stocks that
    solve the no-ICC stationary stock FOCs at that labor, and the
    consumption they leave.

    The stocks come from a 2-D Newton presolve in log stocks, started at the
    best point of a coarse log grid, since marginal products can vary by
    orders of magnitude across technologies.  The log stocks keep the KKT
    solves' floor (``_LOWER``).  Above it they are unbounded: a stock that
    overflows to inf makes the residual infinite, which Newton's line search
    rejects like any other non-finite trial.  The Jacobian is exact: the
    stock block of the technology's Hessian, times the stocks.

    The first point the presolve evaluates with AI at most ``_CORNER_AI``
    and a negative AI row is checked once for the AI corner: AI pinned at
    its floor, a 1-D Newton solves the K row alone, and where the AI row is
    still below -1e-9 there the solve refuses at once.  The check proves
    what it refuses.  Every CES exponent is at most 1 and returns to scale
    are constant, so F is jointly concave, and the two rows, beta (1 -
    delta_k + F_K) - 1 and beta (1 - delta_ai + F_AI) - 1, are the gradient
    of the concave G = beta F(K, AI) - (1 - beta (1 - delta_k)) K - (1 -
    beta (1 - delta_ai)) AI.  At a point on AI's floor where the K row is
    zero and the AI row negative, G's KKT conditions on AI >= floor hold,
    so it is G's maximum there (Nocedal & Wright, Thm 12.6 and the
    convexity of section 12.2).  An interior root would be another one,
    which the negative AI row rules out: no interior root exists, and the
    presolve could not converge.  When the check fails the 2-D Newton goes
    on as it was, so the trigger sets the cost only, never the outcome.

    Raises NoInteriorSolutionError naming the corner, with K and the AI
    row, when the check proves it; otherwise, when the presolve stops short
    of stocks below 1e9 (their overflow among others), naming the stocks
    and residual it stopped at.
    """
    beta, tech = config.prefs.beta, config.tech
    l0 = 0.5
    el_c = config.cognitive.pi * l0 * config.cognitive.z
    el_m = config.manual.pi * l0 * config.manual.z
    floor = _LOWER[5]

    last = _LastPass()  # each accepted point's evaluation, for its Jacobian
    checked = False

    def f(u):
        nonlocal checked
        stocks = np.exp(u)
        if not np.all(stocks < np.inf):
            return np.full(2, np.inf)
        ev = evaluate(tech, el_c, el_m, *stocks)
        last.keep(u, ev)
        rows = np.array([beta * ev.fw_k - 1.0, beta * ev.fw_ai - 1.0])
        if not checked and stocks[1] <= _CORNER_AI and rows[1] < 0.0:
            checked = True
            at_floor(u[0])
        return rows

    def jac(u):
        stocks = np.exp(u)
        ev = last.at(u) or evaluate(tech, el_c, el_m, *stocks)
        h = hessian(tech, ev, el_c, el_m, *stocks)
        return beta * np.array([[h[7], h[8]], [h[8], h[9]]]) * stocks

    def at_floor(v0):
        """Refuse when the K row has a root at AI's floor, from log K =
        ``v0``, where the AI row is below -1e-9: the error ends the 2-D
        Newton from inside its residual."""
        corner = _LastPass()

        def f_k(v):
            k = np.exp(v[0])
            if not k < np.inf:
                return np.full(1, np.inf)
            ev = evaluate(tech, el_c, el_m, k, floor)
            corner.keep(v, ev)
            return np.array([beta * ev.fw_k - 1.0])

        def jac_k(v):
            k = np.exp(v[0])
            ev = corner.at(v) or evaluate(tech, el_c, el_m, k, floor)
            return np.array([[beta * hessian(tech, ev, el_c, el_m, k, floor)[7] * k]])

        res = newton_solve(f_k, np.array([v0]), tol=1e-9, max_iter=80,
                           lower=np.log(_LOWER[4:5]), jac=jac_k)
        if res.converged:
            k = np.exp(res.x[0])
            ev = corner.at(res.x) or evaluate(tech, el_c, el_m, k, floor)
            row = float(beta * ev.fw_ai - 1.0)
            if row < -1e-9:
                raise NoInteriorSolutionError(
                    f"{_label(())}: the capital presolve's stocks, at labor {l0}, sit at the "
                    f"AI corner: beta*(1 - delta_ai + F_AI) = 1 - {-row:.3e} < 1 at "
                    f"K={k:.3e}, AI={floor:.3e}"
                )

    grid = np.linspace(np.log(1e-3), np.log(1e4), 25)
    kk, aa = np.meshgrid(grid, grid, indexing="ij")
    with np.errstate(all="ignore"):
        ev = evaluate(tech, el_c, el_m, np.exp(kk), np.exp(aa))
        score = np.abs(beta * ev.fw_k - 1.0) + np.abs(beta * ev.fw_ai - 1.0)
    score = np.where(np.isfinite(score), score, np.inf)
    i, j = np.unravel_index(np.argmin(score), score.shape)
    res = newton_solve(f, np.array([kk[i, j], aa[i, j]]), tol=1e-9, max_iter=80,
                       lower=np.log(_LOWER[4:6]), jac=jac)
    k0, ai0 = (float(v) for v in np.exp(res.x))
    if not (res.converged and k0 < 1e9 and ai0 < 1e9):
        raise NoInteriorSolutionError(
            f"{_label(())}: the capital presolve stopped at K={k0:.3e}, AI={ai0:.3e} "
            f"(residual {res.residual_norm:.3e})"
        )
    y = evaluate(tech, el_c, el_m, k0, ai0).y
    spend = y - tech.delta_k * k0 - tech.delta_ai * ai0 - config.g
    c0 = spend if spend > 0.05 * y else 0.05 * y
    return np.array([c0, c0, l0, l0, k0, ai0, float(u_prime(config.prefs, c0))])


def _base_start(base: np.ndarray, config: EconomyConfig, active: tuple) -> np.ndarray:
    """Start from a first-best or cold vector: its allocation, lam reset to
    u'(c_c), and each active multiplier seeded with a small positive guess."""
    x = base.copy()
    x[6] = float(u_prime(config.prefs, max(x[0], EPS_C)))
    mu0 = _MU_INIT_FRACTION * min(config.cognitive.pi, config.manual.pi)
    return np.concatenate([x, np.full(len(active), mu0)])


def _build(config: EconomyConfig, att: _Attempt, fb: _Attempt | None) -> PlannerSolution:
    """Solution for an admissible attempt: allocation, KKT residuals,
    objective and assumption report; a steady state keeps the point of its
    first best ``fb``, when it solved one."""
    c_c, c_m, l_c, l_m, k, ai, lam, _, _ = att.point
    mu_c, mu_m, ch, layout = att.mu_c, att.mu_m, att.chain, att.layout
    n = layout.n
    per_period = lambda v, size=n: np.full(size, v, dtype=float)
    alloc = Allocation(
        c_c=per_period(c_c), c_m=per_period(c_m), l_c=per_period(l_c), l_m=per_period(l_m),
        eff_l_c=per_period(ch.el_c), eff_l_m=per_period(ch.el_m),
        k=per_period(k, n + 1), ai=per_period(ai, n + 1),
    )
    mults = Multipliers(
        lam=per_period(lam), mu_c=mu_c, mu_m=mu_m,
        x_k=per_period(ch.incentive[2]), x_ai=per_period(ch.incentive[3]),
        y_term=per_period(mu_c * ch.mimic[0].d_nu[0] if mu_c > 0.0 else mu_m * ch.mimic[1].d_nu[1]),
    )
    res = foc_residuals(config, alloc, mults)
    if layout.stationary:
        center = (ch.el_c, ch.el_m, k, ai)
    else:
        center = tuple(float(np.exp(np.mean(np.log(v)))) for v in (ch.el_c, ch.el_m, k[:n], ai[:n]))
    pi_c, pi_m = config.cognitive.pi, config.manual.pi
    warnings = []
    if mu_c > pi_m - 1e-9:
        warnings.append(f"mu_c = {mu_c:.6g} is not below pi_m = {pi_m:.6g}")
    if mu_m > pi_c - 1e-9:
        warnings.append(f"mu_m = {mu_m:.6g} is not below pi_c = {pi_c:.6g}")
    return PlannerSolution(
        config=config,
        regime=_regime(mu_c, mu_m),
        allocation=alloc,
        multipliers=mults,
        wages_c=per_period(ch.w_c),
        wages_m=per_period(ch.w_m),
        slack_c=att.slack_c,
        slack_m=att.slack_m,
        objective=_objective(config, alloc),
        foc_residual=max(abs(v) if isinstance(v, float) else float(np.max(np.abs(v)))
                         for v in res.values()),
        assumptions=check_assumptions(config.tech, center),
        warnings=tuple(warnings),
        first_best=None if fb is None else fb.point,
    )


def _rejection(att: _Attempt, active: tuple) -> str | None:
    """Why a converged regime is inadmissible, or None when it is admissible.

    Each imposed constraint needs a nonnegative multiplier and each other
    constraint a slack of at least -TOL_ICC.
    """
    mu = {AgentKind.COGNITIVE: att.mu_c, AgentKind.MANUAL: att.mu_m}
    slack = {AgentKind.COGNITIVE: att.slack_c, AgentKind.MANUAL: att.slack_m}
    if all(mu[kind] >= 0.0 if kind in active else slack[kind] >= -TOL_ICC for kind in AgentKind):
        return None
    return (f"{_label(active)}: converged but inadmissible "
            f"(mu=({att.mu_c:.3e}, {att.mu_m:.3e}), slacks=({att.slack_c:.3e}, {att.slack_m:.3e}))")


def _first_admissible(ladder, solve) -> _Attempt:
    """Solve each active set of ``ladder`` in turn; return the first
    admissible attempt, else raise NoRegimeFoundError naming each failure."""
    failures = []
    for active in ladder:
        try:
            att = solve(active)
        except SolverError as exc:
            failures.append(str(exc))
            continue
        reason = _rejection(att, active)
        if reason is None:
            return att
        failures.append(reason)
    raise NoRegimeFoundError("; ".join(failures))


def _solve_steady(config: EconomyConfig, active: tuple, warm: tuple | None, base) -> _Attempt:
    """Steady-state attempt with ``active`` imposed, from the point ``warm``
    and then from the vector ``base()``, each when given.

    ``base`` is only called when the warm start fails: a first best's is a
    cold start (a capital presolve), which raises NoInteriorSolutionError
    when the presolve finds no stocks.
    """
    layout = _Layout(active)

    def starts():
        if warm is not None:
            yield layout.start(warm)
        if base is not None:
            yield _base_start(base(), config, active)

    return _newton(config, layout, starts())


def _first_best(config: EconomyConfig, *, warm: tuple | None = None) -> _Attempt:
    """The first best's attempt, unbuilt: ``first_best`` without the solution."""
    require_valid(config)
    return _solve_steady(config, (), warm, lambda: _cold_start(config))


def first_best(config: EconomyConfig, *, warm: PlannerSolution | None = None) -> PlannerSolution:
    """Steady-state planner optimum ignoring both incentive constraints.

    ``warm`` is a solved steady state to start Newton from.  The returned
    slacks report whether that optimum is incentive-compatible;
    negative slack means the corresponding constraint would bind.
    """
    fb = _first_best(config, warm=_steady_point(warm))
    return _build(config, fb, fb)


def violated_side(fb: PlannerSolution | _Attempt) -> AgentKind:
    """The type whose incentive constraint a first best (a solution or an
    attempt) violates more.

    At a first best consumption is equal across types, so the sign of
    slack_c - slack_m is the sign of the earnings gap w_m l_m - w_c l_c:
    the cognitive side holds while cognitive workers out-earn manual ones.
    The steady-state ladder tries this side first, and ``find_threshold``
    bisects on it.
    """
    return AgentKind.COGNITIVE if fb.slack_c <= fb.slack_m else AgentKind.MANUAL


def solve_steady_state(config: EconomyConfig, *,
                       warm: PlannerSolution | tuple | None = None) -> PlannerSolution:
    """Stationary constrained-efficient allocation via active-set Newton.

    ``warm`` is a solved steady state or a bare stationary point (c_c, c_m,
    l_c, l_m, k, ai, lam, mu_c, mu_m), such as one predicted from
    neighboring solutions; a path solution is ignored.  It becomes one
    point here (``_steady_point``), which starts each regime's Newton
    (``_steady_attempt``).  Only the returned attempt is built into a
    solution, which keeps its first best's point, if it solved one.
    """
    return _build(config, *_steady_attempt(config, _steady_point(warm)))


def _steady_attempt(config: EconomyConfig, warm: tuple | None) -> tuple[_Attempt, _Attempt | None]:
    """The steady state's admissible attempt and its first best's (None
    when it solved none), unbuilt: ``solve_steady_state`` without the
    solution.

    The config is validated, then one ladder is climbed: the regime a warm
    point binding exactly one constraint predicts, from that point alone;
    the first best, from the warm point and then cold (its failure is the
    solve's, as it orders the rest); then its most-violated side, the
    other and both, each from the warm point and then the first best's
    vector, but the predicted regime from that vector alone.
    """
    require_valid(config)
    binding = () if warm is None else _BINDING[_regime(*warm[7:])]
    predicted = binding if len(binding) == 1 else None
    fb = None

    def ladder():
        nonlocal fb
        if predicted:
            yield predicted
        fb = _solve_steady(config, (), warm, lambda: _cold_start(config))
        yield ()
        first = violated_side(fb)
        yield from ((first,), (first.other,), _BINDING[Regime.BOTH_BIND])

    def solve(active: tuple) -> _Attempt:
        if fb is None:  # the predicted rung
            return _solve_steady(config, active, warm, None)
        if not active:
            return fb
        return _solve_steady(config, active, None if active == predicted else warm,
                             lambda: fb.x)

    att = _first_admissible(ladder(), solve)
    return att, fb


# ---------------------------------------------------------------------------
# Residual evaluation for externally supplied candidates
# ---------------------------------------------------------------------------

def foc_residuals(config: EconomyConfig, alloc: Allocation, mults: Multipliers) -> dict:
    """Named KKT residuals at a candidate (allocation, multipliers).

    Incentive constraints enter as complementary-slackness rows
    mu_h * slack_h, so the map is defined for any candidate regardless of
    which constraints were imposed.  Stationary candidates (one period)
    return scalar components, with the flow slack the Newton rows solve and
    the stationary c and l rows derive from; finite-horizon candidates
    return per-period arrays for the sequential rows and discounted sums
    for the complementary-slackness rows.

    The kernels check no domain, so the candidate is checked here: an
    allocation entry or ``lam`` that is not finite and strictly positive
    raises DomainError naming it.  A stationary candidate runs the kernel
    on Python floats, as the Newton residual does; where their arithmetic
    raises (an overflow, a division by zero) it runs again on numpy
    scalars, which give the same bits where the floats do not raise and
    inf or nan where they do.
    """
    a = alloc
    inputs = {"c_c": a.c_c, "c_m": a.c_m, "l_c": a.l_c, "l_m": a.l_m,
              "k": a.k, "ai": a.ai, "lam": mults.lam}
    entries = []
    for name, v in inputs.items():
        entries.append(np.ravel(v).tolist())
        if not all(0.0 < x < math.inf for x in entries[-1]):  # False on nan
            raise DomainError(f"{name} must be finite and strictly positive, got {v}")
    mu_c, mu_m = mults.mu_c, mults.mu_m
    if a.n_periods > 1:
        rows, slack_c, slack_m, _ = _kkt(config, *inputs.values(), mu_c, mu_m)
        beta = config.prefs.beta
        return {**dict(zip(_ROWS, rows)),
                "comp_slack_c": _lifetime(beta, mu_c * slack_c),
                "comp_slack_m": _lifetime(beta, mu_m * slack_m)}
    point = [v[0] for v in entries]
    try:
        rows, slack_c, slack_m, _ = _kkt(config, *point, mu_c, mu_m)
    except _FLOAT_ERRORS:
        rows, slack_c, slack_m, _ = _kkt(config, *map(np.float64, point), mu_c, mu_m)
    return {**dict(zip(_ROWS, map(float, rows))),
            "comp_slack_c": float(mu_c * slack_c), "comp_slack_m": float(mu_m * slack_m)}


# ---------------------------------------------------------------------------
# Finite horizon
# ---------------------------------------------------------------------------

def solve_finite_horizon(config: EconomyConfig) -> PlannerSolution:
    """Direct transcription of the T-period problem, terminal stocks pinned
    to the steady state of the same economy.

    That steady state is solved as an attempt and never built: the path
    reads only its stocks, its regime and its point, which starts every
    regime's Newton.
    """
    require_valid(config)
    if config.mode is not SolveMode.FINITE_HORIZON or config.horizon is None:
        raise ConfigError("solve_finite_horizon needs mode = finite_horizon with T set")
    if config.k0 <= 0.0 or config.ai0 <= 0.0:
        raise ConfigError("finite horizon requires strictly positive initial stocks k0, ai0")
    n = config.horizon + 1

    ss, _ = _steady_attempt(replace(config, mode=SolveMode.STEADY_STATE, horizon=None), None)
    k, ai = ss.point[4:6]
    ends = (config.k0, config.ai0, k, ai)
    # the steady state's regime first, then the others in a fixed order
    ss_active = _BINDING[_regime(ss.mu_c, ss.mu_m)]
    ladder = sorted(_BINDING.values(), key=lambda active: active != ss_active)

    def solve(active: tuple) -> _Attempt:
        layout = _Layout(active, n=n, ends=ends)
        return _newton(config, layout, [layout.start(ss.point)])

    return _build(config, _first_admissible(ladder, solve), None)
