"""Constrained-efficient planner: first best, steady state, finite horizon.

The planner maximizes population-weighted lifetime utility subject to the
resource constraint and, when they bind, incentive-compatibility
constraints (each type must prefer its own bundle to mimicking the other's
labor income).  Binding constraints put wage-ratio terms into the
first-order conditions:

* stock FOCs gain X-terms, mu * nu'(mimic labor) * l_other * d(wage ratio)/d(stock),
  which generate the capital and AI wedges;
* labor FOCs gain Y-terms from the same wage-ratio channel.

Solution method: active-set Newton.  Solve without constraints; if an
incentive constraint is violated impose it as an equality with its
multiplier as an unknown, and accept the first regime that converges with
an admissible multiplier and a slack other constraint.  Regimes are tried
most-violated first, then the other single constraint, then both.

One KKT kernel (``_kkt``) writes each first-order condition once, for the
steady state and the finite-horizon path alike: a steady state is the path
whose next period is itself.  The Newton residuals and the public
``foc_residuals`` both evaluate it.

A regime's steady state gets at most two Newton starts, a warm solution
and then one base start (the first best's vector, or a cold start from a
capital presolve), and fails fast when neither converges.  A converged
vector is judged from its multipliers and lifetime slacks (one kernel
call); only the attempt a solver returns is built into a PlannerSolution
with its assumption report, KKT residuals and objective.  All solves are
deterministic: no randomness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

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
    InconsistentMultipliersError,
    NoInteriorSolutionError,
    NoRegimeFoundError,
    SolverError,
)
from .newton import Groups, newton_solve
from .preferences import nu_eval, nu_prime, u_eval, u_prime
from .production import (
    AssumptionReport,
    Grid4,
    TechEvaluation,
    check_assumptions,
    evaluate,
    marginal_products,
    mpl_ratio_gradient,
    output,
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

    @property
    def stationary(self) -> bool:
        return self.allocation.n_periods == 1


@dataclass(frozen=True)
class _ChainTerms:
    """Wage-ratio pieces of the FOCs at one point (scalar or per-period arrays)."""

    ev: TechEvaluation
    el_c: object  # effective labor pi * l * z
    el_m: object
    lt_c: object  # labor the cognitive type supplies when mimicking
    lt_m: object
    x_k: object
    x_ai: object
    y_c: object  # ICC_c wage term in the l_c FOC (the Y-term when cognitive binds)
    y_m: object
    cross_c: object  # ICC_m terms entering the l_c FOC
    cross_m: object


def _chain_terms(config: EconomyConfig, l_c, l_m, k, ai, mu_c, mu_m) -> _ChainTerms:
    prefs = config.prefs
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z
    el_c = pi_c * l_c * z_c
    el_m = pi_m * l_m * z_m
    ev = evaluate(config.tech, config, el_c, el_m, k, ai)

    ratio = ev.mp.f_lc / ev.mp.f_lm
    grad = mpl_ratio_gradient(config.tech, el_c, el_m, k, ai)
    zr = z_m / z_c
    r_mc = zr / ratio
    g_mc = tuple(-zr * g / ratio**2 for g in grad)
    r_cm = 1.0 / r_mc
    g_cm = tuple(g / zr for g in grad)

    lt_c = l_m * r_mc
    lt_m = l_c * r_cm
    nup_lt_c = nu_prime(prefs, lt_c)
    nup_lt_m = nu_prime(prefs, lt_m)

    x_k = mu_c * nup_lt_c * l_m * g_mc[2] + mu_m * nup_lt_m * l_c * g_cm[2]
    x_ai = mu_c * nup_lt_c * l_m * g_mc[3] + mu_m * nup_lt_m * l_c * g_cm[3]

    y_c = mu_c * nup_lt_c * l_m * g_mc[0] * pi_c * z_c
    y_m = mu_m * nup_lt_m * l_c * g_cm[1] * pi_m * z_m
    cross_c = mu_m * nup_lt_m * (r_cm + l_c * g_cm[0] * pi_c * z_c)
    cross_m = mu_c * nup_lt_c * (r_mc + l_m * g_mc[1] * pi_m * z_m)

    return _ChainTerms(
        ev=ev, el_c=el_c, el_m=el_m, lt_c=lt_c, lt_m=lt_m,
        x_k=x_k, x_ai=x_ai, y_c=y_c, y_m=y_m, cross_c=cross_c, cross_m=cross_m,
    )


def _flow_slacks(prefs, ct_c, ct_m, l_c, l_m, lt_c, lt_m):
    u_c, u_m = u_eval(prefs, ct_c), u_eval(prefs, ct_m)
    slack_c = (u_c - nu_eval(prefs, l_c)) - (u_m - nu_eval(prefs, lt_c))
    slack_m = (u_m - nu_eval(prefs, l_m)) - (u_c - nu_eval(prefs, lt_m))
    return slack_c, slack_m


def _kkt(config: EconomyConfig, c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m):
    """KKT rows and flow incentive slacks at a candidate.

    A path has one stock more than periods: arrays of n periods whose ``k``
    and ``ai`` hold the n + 1 stocks K_0 .. K_n, or a stack of G paths,
    each entry with a leading axis of G and the multipliers (G, 1) columns.
    A steady state is the path whose next period is itself: it holds as
    many stocks as periods, scalars for one point or (G,) arrays for a
    stack of G points.  So ``now`` drops a path's last period and ``nxt``
    its first, and both leave a steady state as it is; every row is then
    written once.  The stock rows are the Euler equations divided through
    by next period's lam, which makes a steady state's lam/lam exactly 1.
    A stacked path's rows are bit for bit the rows each path gets alone,
    since every operation is elementwise along the periods; a stacked
    steady state's can differ from its scalar rows in the last bits (array
    and scalar ``**`` round apart).  One point stays on scalars: a 1-point
    array call costs about four times a scalar one.  Returns the seven rows
    named in ``_ROWS``, the cognitive and manual flow slacks, and the chain
    terms.
    """
    prefs, tech = config.prefs, config.tech
    pi_c, pi_m = config.cognitive.pi, config.manual.pi
    beta = prefs.beta
    if np.shape(k) == np.shape(lam):
        now = nxt = lambda v: v
    else:
        now, nxt = (lambda v: v[..., :-1]), (lambda v: v[..., 1:])
    k_now, ai_now = now(k), now(ai)
    ch = _chain_terms(config, l_c, l_m, k_now, ai_now, mu_c, mu_m)
    ev = ch.ev
    lam_ratio = now(lam) / nxt(lam)
    rows = [
        u_prime(prefs, c_c) * (pi_c + mu_c - mu_m) - lam * pi_c,
        u_prime(prefs, c_m) * (pi_m + mu_m - mu_c) - lam * pi_m,
        -(pi_c + mu_c) * nu_prime(prefs, l_c) + ch.y_c + ch.cross_c + lam * pi_c * ev.w_c,
        -(pi_m + mu_m) * nu_prime(prefs, l_m) + ch.y_m + ch.cross_m + lam * pi_m * ev.w_m,
        lam_ratio - beta * nxt(ev.mp.fw_k) - beta * nxt(ch.x_k) / nxt(lam),
        lam_ratio - beta * nxt(ev.mp.fw_ai) - beta * nxt(ch.x_ai) / nxt(lam),
        ev.y - pi_c * c_c - pi_m * c_m
        - (nxt(k) - k_now + tech.delta_k * k_now)
        - (nxt(ai) - ai_now + tech.delta_ai * ai_now)
        - config.g,
    ]
    slack_c, slack_m = _flow_slacks(prefs, c_c, c_m, l_c, l_m, ch.lt_c, ch.lt_m)
    return rows, slack_c, slack_m, ch


def _lifetime(beta: float, flow) -> float:
    """Discounted value of a per-period flow: flow / (1 - beta) for a steady
    state (a scalar), sum_t beta**t * flow_t for a path."""
    if np.ndim(flow) == 0:
        return float(flow) * (1.0 / (1.0 - beta))
    return float(np.dot(beta ** np.arange(len(flow)), flow))


def _periods(*arrays):
    """Stored per-period arrays as the kernel takes them: numpy scalars for a
    steady state, the one-point form the Newton residual evaluates (Python
    floats would round the ratio gradient's complex step differently)."""
    if len(arrays[0]) == 1:
        return tuple(v[0] for v in arrays)
    return arrays


def _objective(config: EconomyConfig, alloc: Allocation) -> float:
    """Population-weighted lifetime utility of an allocation."""
    prefs = config.prefs
    c_c, c_m, l_c, l_m = _periods(alloc.c_c, alloc.c_m, alloc.l_c, alloc.l_m)
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

    def unpack(self, x: np.ndarray) -> tuple:
        """The kernel's candidate (c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m).

        ``x`` may be a stack of points, one per row.  A steady state's
        entries are then its columns, (G,) arrays, and scalars otherwise.  A
        path's per-period entries gain the leading axis, and each multiplier
        is a column, so that it broadcasts across the periods.
        """
        if self.stationary:
            cols = x.T
            mu_c, mu_m = (0.0 if i is None else cols[i] for i in self.mu_at)
            return (*cols[:7], mu_c, mu_m)
        mu_c, mu_m = (0.0 if i is None else x[..., i, None] if x.ndim > 1 else x[i]
                      for i in self.mu_at)
        n = self.n
        edge = lambda v: np.full(x.shape[:-1] + (1,), v)
        k_0, ai_0, k_n, ai_n = self.ends
        k = np.concatenate((edge(k_0), x[..., 4 * n : 5 * n - 1], edge(k_n)), axis=-1)
        ai = np.concatenate((edge(ai_0), x[..., 5 * n - 1 : 6 * n - 2], edge(ai_n)), axis=-1)
        return (x[..., :n], x[..., n : 2 * n], x[..., 2 * n : 3 * n], x[..., 3 * n : 4 * n], k, ai,
                x[..., 6 * n - 2 : 7 * n - 2], mu_c, mu_m)

    def jacobian_groups(self) -> tuple:
        """Jacobian column groups and row fold of the path's expanded residual.

        Every unknown and every expanded row has a period: a stock K_t's is
        t, and the Euler row linking t to t + 1 has period t.  A row can
        depend on an unknown of its own period or of the next one; the
        multipliers touch every row.  So unknowns of one kind two periods
        apart share no row: each kind's unknowns go to two groups by the
        parity of their period, and each multiplier to a group of its own.
        The fold sums each active slack's n per-period rows into its one
        Newton row.  A steady state has neither (None, None): its Jacobian
        is dense and its rows are not expanded.
        """
        if self.stationary:
            return None, None
        n, active = self.n, len(self.active)
        per, inner = np.arange(n), np.arange(1, n)
        head = 7 * n - 2
        kind = np.repeat(np.arange(7), self.sizes)
        period = np.concatenate([per] * 4 + [inner] * 2 + [per])
        row = np.concatenate([per] * 4 + [per[:-1]] * 2 + [per] * (1 + active))
        # each kind's unknown of each period (-1: none); a row's entries are
        # those of its own period and of the next, and every multiplier
        at = np.full((7, n + 1), -1)
        at[kind, period] = np.arange(head)
        owner = np.concatenate([at[:, row], at[:, row + 1]])
        hit = owner >= 0
        mus = head + np.arange(active)
        rows = np.concatenate([np.nonzero(hit)[1], np.repeat(np.arange(len(row)), active)])
        owners = np.concatenate([owner[hit], np.tile(mus, len(row))])
        _, color = np.unique(2 * kind + period % 2, return_inverse=True)
        color = np.concatenate([color, color.max() + 1 + np.arange(active)])
        fold = np.concatenate([np.arange(head), np.repeat(mus, n)])
        return Groups(color, rows, owners), fold

    def lower(self) -> np.ndarray:
        return np.concatenate([np.repeat(_LOWER, self.sizes), np.full(len(self.active), -np.inf)])

    def start(self, warm: PlannerSolution | _Attempt) -> np.ndarray:
        """Start vector repeating a solved steady state, a PlannerSolution
        or an ``_Attempt``.

        An active constraint's multiplier is carried over when positive and
        otherwise seeded with a small positive guess.
        """
        c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m = _steady_point(warm)
        head = tuple(float(v) for v in (c_c, c_m, l_c, l_m, k, ai, lam))
        stored = {AgentKind.COGNITIVE: mu_c, AgentKind.MANUAL: mu_m}
        mus = [stored[kind] if stored[kind] > 0.0 else _MU_INIT_FRACTION * 0.5
               for kind in self.active]
        return np.concatenate([np.repeat(head, self.sizes), np.asarray(mus, dtype=float)])


@dataclass(frozen=True)
class _Attempt:
    """A converged Newton vector, judged before anything is built from it.

    ``point`` is the kernel's candidate (c_c, c_m, l_c, l_m, k, ai, lam,
    mu_c, mu_m) and ``chain`` its chain terms; the slacks are lifetime
    values.  That is all admissibility, ``violated_side`` and a warm start
    read; ``_build`` turns the one attempt a solver returns into a solution.
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


def _judge(config: EconomyConfig, layout: _Layout, x: np.ndarray) -> _Attempt:
    """The attempt at a converged Newton vector: one KKT kernel call."""
    point = layout.unpack(x)
    _, flow_c, flow_m, ch = _kkt(config, *point)
    beta = config.prefs.beta
    return _Attempt(layout=layout, x=x, point=point, chain=ch,
                    mu_c=float(point[7]), mu_m=float(point[8]),
                    slack_c=_lifetime(beta, flow_c), slack_m=_lifetime(beta, flow_m))


def _steady_point(warm: PlannerSolution | _Attempt) -> tuple:
    """The stationary candidate (c_c, ..., lam, mu_c, mu_m) a warm start repeats."""
    if isinstance(warm, _Attempt):
        return warm.point
    a, m = warm.allocation, warm.multipliers
    return (a.c_c[0], a.c_m[0], a.l_c[0], a.l_m[0], a.k[0], a.ai[0], m.lam[0], m.mu_c, m.mu_m)


def _residual_fn(config: EconomyConfig, layout: _Layout):
    """Newton residual: the seven KKT rows, then each active incentive slack.

    Stationary slack rows stay in flow units.  A path's slack rows are
    expanded: n per-period rows beta**t * slack_t, which the layout's fold
    sums into the lifetime slack.  The residual also takes a stack of
    points, one per row, and returns their residuals row by row.
    """
    imposed = tuple(kind in layout.active for kind in (AgentKind.COGNITIVE, AgentKind.MANUAL))
    discount = config.prefs.beta ** np.arange(layout.n)

    def f(x: np.ndarray) -> np.ndarray:
        rows, slack_c, slack_m, _ = _kkt(config, *layout.unpack(x))
        slacks = [s for s, on in zip((slack_c, slack_m), imposed) if on]
        if layout.stationary:
            return np.array(rows + slacks).T
        return np.concatenate(rows + [discount * s for s in slacks], axis=-1)

    return f


def _newton(config: EconomyConfig, layout: _Layout, starts) -> _Attempt:
    """Newton from each start in turn; returns the first converged vector, judged.

    ``starts`` may be a generator: a start is then only built when every
    earlier one failed.
    """
    f = _residual_fn(config, layout)
    lower = layout.lower()
    groups, fold = layout.jacobian_groups()
    for tried, x0 in enumerate(starts, 1):
        # the fraction-to-boundary rule needs every start strictly inside the bounds
        res = newton_solve(f, np.maximum(x0, lower + 1e-12), tol=TOL_NEWTON, lower=lower,
                           groups=groups, fold=fold)
        if res.converged:
            return _judge(config, layout, res.x)
    raise NoInteriorSolutionError(
        f"{_label(layout.active)}: Newton did not converge from {tried} start(s) "
        f"(last residual {res.residual_norm:.3e})"
    )


def _capital_subsolve(config: EconomyConfig, el_c: float, el_m: float):
    """Stocks consistent with the no-ICC stationary stock FOCs, labor held fixed.

    A coarse log-grid presolve picks the Newton start, its best-scoring
    point; marginal products can vary by orders of magnitude across
    technologies, so a fixed start is not reliable.  Returns None when
    Newton finds no interior stock pair from there.

    This is the one solve whose iterates can leave the kernels' domain:
    its log stocks are unbounded, so ``exp`` can underflow a stock to 0 or
    overflow it to inf.  The residual is then infinite, which Newton's line
    search rejects like any other non-finite trial.  The KKT solves need no
    such barrier: their lower bounds keep every unknown strictly positive.
    A stack with any such point is all infinite, so its Jacobian fails.
    """
    beta, tech = config.prefs.beta, config.tech

    def f(u):
        stocks = np.exp(u)
        if not np.all((0.0 < stocks) & (stocks < np.inf)):
            return np.full(np.shape(u), np.inf)
        k, ai = stocks.T
        mp = marginal_products(tech, el_c, el_m, k, ai)
        return np.array([beta * mp.fw_k - 1.0, beta * mp.fw_ai - 1.0]).T

    grid = np.linspace(np.log(1e-3), np.log(1e4), 25)
    kk, aa = np.meshgrid(grid, grid, indexing="ij")
    with np.errstate(all="ignore"):
        mp = marginal_products(tech, el_c, el_m, np.exp(kk), np.exp(aa))
        score = np.abs(beta * mp.fw_k - 1.0) + np.abs(beta * mp.fw_ai - 1.0)
    score = np.where(np.isfinite(score), score, np.inf)
    i, j = np.unravel_index(np.argmin(score), score.shape)
    res = newton_solve(f, np.array([kk[i, j], aa[i, j]]), tol=1e-9, max_iter=80)
    if res.converged:
        k, ai = np.exp(res.x)
        if k < 1e9 and ai < 1e9:
            return float(k), float(ai)
    return None


def _cold_start(config: EconomyConfig) -> np.ndarray:
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z
    l0 = 0.5
    el_c = pi_c * l0 * z_c
    el_m = pi_m * l0 * z_m
    stocks = _capital_subsolve(config, el_c, el_m)
    k0, ai0 = stocks if stocks is not None else (1.0, 1.0)
    y = output(config.tech, el_c, el_m, k0, ai0)
    spend = y - config.tech.delta_k * k0 - config.tech.delta_ai * ai0 - config.g
    c0 = spend if spend > 0.05 * y else 0.05 * y
    return np.array([c0, c0, l0, l0, k0, ai0, float(u_prime(config.prefs, c0))])


def _base_start(base: np.ndarray, config: EconomyConfig, active: tuple) -> np.ndarray:
    """Start from a first-best or cold vector: its allocation, lam reset to
    u'(c_c), and each active multiplier seeded with a small positive guess."""
    x = base.copy()
    x[6] = float(u_prime(config.prefs, max(x[0], EPS_C)))
    mu0 = _MU_INIT_FRACTION * min(config.cognitive.pi, config.manual.pi)
    return np.concatenate([x, np.full(len(active), mu0)])


def _classify(mu_c: float, mu_m: float, slack_c: float, slack_m: float, strict: bool = False) -> Regime:
    binds = []
    for kind, mu, slack in (
        (AgentKind.COGNITIVE, mu_c, slack_c),
        (AgentKind.MANUAL, mu_m, slack_m),
    ):
        if mu > TOL_ICC:
            if abs(slack) > TOL_ICC and strict:
                raise InconsistentMultipliersError(
                    f"{kind.value} multiplier {mu:.3e} positive but slack {slack:.3e} nonzero"
                )
            binds.append(kind)
    if not binds:
        return Regime.NONE_BIND
    if binds == [AgentKind.COGNITIVE]:
        return Regime.COGNITIVE_BINDS
    if binds == [AgentKind.MANUAL]:
        return Regime.MANUAL_BINDS
    return Regime.BOTH_BIND


def detect_regime(solution: PlannerSolution) -> Regime:
    """Classify a solution from its multipliers and incentive slacks.

    A type binds when its multiplier exceeds TOL_ICC and its slack is zero
    within TOL_ICC; a positive multiplier with nonzero slack raises
    InconsistentMultipliersError.
    """
    return _classify(
        solution.multipliers.mu_c,
        solution.multipliers.mu_m,
        solution.slack_c,
        solution.slack_m,
        strict=True,
    )


def _build(config: EconomyConfig, att: _Attempt) -> PlannerSolution:
    """Solution for an admissible attempt: allocation, KKT residuals,
    objective and assumption report."""
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
        x_k=per_period(ch.x_k), x_ai=per_period(ch.x_ai),
        y_term=per_period(ch.y_c if mu_c > 0.0 else ch.y_m),
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
        regime=_classify(mu_c, mu_m, att.slack_c, att.slack_m),
        allocation=alloc,
        multipliers=mults,
        wages_c=per_period(ch.ev.w_c),
        wages_m=per_period(ch.ev.w_m),
        slack_c=att.slack_c,
        slack_m=att.slack_m,
        objective=_objective(config, alloc),
        foc_residual=max(float(np.max(np.abs(v))) for v in res.values()),
        assumptions=check_assumptions(config.tech, Grid4.log_around(center)),
        warnings=tuple(warnings),
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


def _first_admissible(ladder: list, solve, failures: list) -> _Attempt:
    """Solve each active set of ``ladder`` in turn; return the first admissible attempt."""
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


def _solve_steady(config: EconomyConfig, active: tuple,
                  warm: PlannerSolution | _Attempt | None, base: np.ndarray | None) -> _Attempt:
    """Steady-state attempt with ``active`` imposed.

    At most two starts: the warm solution or attempt (when stationary),
    then one start from ``base``, or from a cold start when there is none.
    The cold start (a capital presolve) is only built when the warm start
    fails.
    """
    layout = _Layout(active)

    def starts():
        if warm is not None and warm.stationary:
            yield layout.start(warm)
        yield _base_start(_cold_start(config) if base is None else base, config, active)

    return _newton(config, layout, starts())


def _first_best(config: EconomyConfig, *, warm: PlannerSolution | _Attempt | None = None) -> _Attempt:
    """The first best's attempt, unbuilt: ``first_best`` without the solution."""
    require_valid(config)
    return _solve_steady(config, (), warm, None)


def first_best(config: EconomyConfig, *, warm: PlannerSolution | None = None) -> PlannerSolution:
    """Steady-state planner optimum ignoring both incentive constraints.

    ``warm`` is a solved steady state to start Newton from.  The returned
    slacks report whether that optimum is incentive-compatible;
    negative slack means the corresponding constraint would bind.
    """
    return _build(config, _first_best(config, warm=warm))


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
                       warm: PlannerSolution | _Attempt | None = None) -> PlannerSolution:
    """Stationary constrained-efficient allocation via active-set Newton.

    ``warm`` is a solved steady state, a PlannerSolution or a first-best
    attempt.  Only the returned attempt is built into a solution.
    """
    fb = _first_best(config, warm=warm)
    reason = _rejection(fb, ())
    if reason is None:
        return _build(config, fb)

    first = violated_side(fb)
    ladder = [(first,), (first.other,), _BINDING[Regime.BOTH_BIND]]
    return _build(config, _first_admissible(
        ladder, lambda active: _solve_steady(config, active, warm, fb.x), [reason]
    ))


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
    raises DomainError naming it.
    """
    a = alloc
    inputs = {"c_c": a.c_c, "c_m": a.c_m, "l_c": a.l_c, "l_m": a.l_m,
              "k": a.k, "ai": a.ai, "lam": mults.lam}
    for name, v in inputs.items():
        if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
            raise DomainError(f"{name} must be finite and strictly positive, got {v}")
    rows, slack_c, slack_m, _ = _kkt(config, *_periods(*inputs.values()), mults.mu_c, mults.mu_m)
    beta = config.prefs.beta
    if a.n_periods == 1:
        rows = [float(r) for r in rows]
        total = float
    else:
        total = lambda flow: _lifetime(beta, flow)
    return {
        **dict(zip(_ROWS, rows)),
        "comp_slack_c": total(mults.mu_c * slack_c),
        "comp_slack_m": total(mults.mu_m * slack_m),
    }


# ---------------------------------------------------------------------------
# Finite horizon
# ---------------------------------------------------------------------------

def solve_finite_horizon(config: EconomyConfig) -> PlannerSolution:
    """Direct transcription of the T-period problem, terminal stocks pinned
    to the steady state of the same economy."""
    require_valid(config)
    if config.mode is not SolveMode.FINITE_HORIZON or config.horizon is None:
        raise ConfigError("solve_finite_horizon needs mode = finite_horizon with T set")
    if config.k0 <= 0.0 or config.ai0 <= 0.0:
        raise ConfigError("finite horizon requires strictly positive initial stocks k0, ai0")
    n = config.horizon + 1

    ss = solve_steady_state(replace(config, mode=SolveMode.STEADY_STATE, horizon=None))
    ends = (config.k0, config.ai0, float(ss.allocation.k[0]), float(ss.allocation.ai[0]))
    # the steady state's regime first, then the others in a fixed order
    ss_active = _BINDING[ss.regime]
    ladder = sorted(_BINDING.values(), key=lambda active: active != ss_active)

    def solve(active: tuple) -> _Attempt:
        layout = _Layout(active, n=n, ends=ends)
        return _newton(config, layout, [layout.start(ss)])

    return _build(config, _first_admissible(ladder, solve, []))
