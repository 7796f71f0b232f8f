"""Production technology: one evaluation, its Hessians, the ratio gradient, bias checks.

Three functional forms, all homogeneous of degree one:

* ``nest_complements``: top-level CES over a cognitive bundle
  X_c = CES(K, L_c; rho_c) and a manual bundle X_m = CES(a_ai*AI, L_m; rho_m).
  Capital complements cognitive labor, AI complements manual labor.
* ``nest_substitute_cognitive``: AI enters in efficiency units alongside
  cognitive labor, X_c = CES(K, L_c + a_ai*AI; rho_c), X_m = L_m.
* ``cobb_douglas``: the all-exponents-zero limit of nest_complements.
  Its marginal-product ratio is independent of both stocks, which makes it
  the negative control for the factor-bias assumptions below.

Any CES exponent within 1e-6 of zero is evaluated on the exact
Cobb-Douglas limit branch rather than the raw formula.

The factor-bias assumptions checked by :func:`check_assumptions` concern
the ratio of marginal products of labor r = F_Lc / F_Lm:

* A1: r strictly increases in K,
* A2: r strictly decreases in AI,
* A3: r strictly decreases in L_c and strictly increases in L_m.

:func:`evaluate` is the one way to evaluate the technology: one core pass
gives output, the four marginal products and the two wealth returns in
one record.  The solver's incentive rows and the checker take the partials
of r from one closed form, :func:`mpl_ratio_gradient`, which reads that
record's marginal products: no second core pass, no complex input and no
finite-difference derivative of r.  The solver's exact Jacobians take the
second derivatives of F and of r the same way, from the marginal products
and the bundle shares (:func:`hessian`, :func:`mpl_ratio_hessian`): each
symmetric Hessian is its ten entries, one per pair of inputs (``PAIRS``),
each one straight-line expression that runs on a steady state's Python
floats and on a path's per-period arrays alike.  Core evaluation is plain
arithmetic on floats and numpy arrays.  Nothing here checks its inputs'
domain (strictly positive): callers keep them there, and values from
outside the program are checked where they enter
(``planner.foc_residuals``, and the grid factor and points in
:func:`check_assumptions`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import TechForm, TechnologyParams
from .errors import DomainError

# exponents closer to zero than this use the exact log-limit branch
LOG_LIMIT = 1e-6

# strictness margin on ratio derivatives
TOL_STRICT = 1e-8

VERDICT_PASS = "pass"
VERDICT_NON_STRICT = "non_strict"
VERDICT_FAIL = "fail"


def _ces(share, x, y, rho):
    """Two-input CES aggregate; exact geometric-mean branch near rho = 0."""
    if abs(rho) < LOG_LIMIT:
        return x**share * y ** (1.0 - share)
    return (share * x**rho + (1.0 - share) * y**rho) ** (1.0 / rho)


def _ces_dx(share, x, y, rho, value):
    """Partial of the CES aggregate with respect to its first input.

    The partial with respect to the second input is _ces_dx(1 - share, y, x, rho, value).
    """
    if abs(rho) < LOG_LIMIT:
        return share * value / x
    return share * x ** (rho - 1.0) * value ** (1.0 - rho)


def _exponents(tech: TechnologyParams) -> tuple[float, float, float]:
    if tech.form is TechForm.COBB_DOUGLAS:
        return 0.0, 0.0, 0.0
    return tech.sigma_top, tech.rho_c, tech.rho_m


def _core(tech: TechnologyParams, l_c, l_m, k, ai):
    """Output and the four marginal products, shared across input dtypes.

    Returns (y, f_lc, f_lm, f_k, f_ai).
    """
    sigma, rho_c, rho_m = _exponents(tech)
    if tech.form is TechForm.NEST_SUBSTITUTE_COGNITIVE:
        n = l_c + tech.a_ai * ai
        x_c = _ces(tech.lambda_c, k, n, rho_c)
        x_m = l_m
        v = _ces(tech.mu_top, x_c, x_m, sigma)
        f_xc = tech.a * _ces_dx(tech.mu_top, x_c, x_m, sigma, v)
        f_xm = tech.a * _ces_dx(1.0 - tech.mu_top, x_m, x_c, sigma, v)
        x_c_n = _ces_dx(1.0 - tech.lambda_c, n, k, rho_c, x_c)
        f_lc = f_xc * x_c_n
        f_ai = f_xc * x_c_n * tech.a_ai
        f_k = f_xc * _ces_dx(tech.lambda_c, k, n, rho_c, x_c)
        return tech.a * v, f_lc, f_xm, f_k, f_ai

    ai_eff = tech.a_ai * ai
    x_c = _ces(tech.lambda_c, k, l_c, rho_c)
    x_m = _ces(tech.theta_m, ai_eff, l_m, rho_m)
    v = _ces(tech.mu_top, x_c, x_m, sigma)
    f_xc = tech.a * _ces_dx(tech.mu_top, x_c, x_m, sigma, v)
    f_xm = tech.a * _ces_dx(1.0 - tech.mu_top, x_m, x_c, sigma, v)
    f_lc = f_xc * _ces_dx(1.0 - tech.lambda_c, l_c, k, rho_c, x_c)
    f_k = f_xc * _ces_dx(tech.lambda_c, k, l_c, rho_c, x_c)
    f_lm = f_xm * _ces_dx(1.0 - tech.theta_m, l_m, ai_eff, rho_m, x_m)
    f_ai = f_xm * _ces_dx(tech.theta_m, ai_eff, l_m, rho_m, x_m) * tech.a_ai
    return tech.a * v, f_lc, f_lm, f_k, f_ai


@dataclass(frozen=True)
class TechEvaluation:
    """Output and its partials at one input point (or arrays of points):
    the four marginal products and the wealth returns fw = f + (1 - delta)
    of the two stocks."""

    y: float
    f_lc: float
    f_lm: float
    f_k: float
    f_ai: float
    fw_k: float
    fw_ai: float


def evaluate(tech: TechnologyParams, l_c, l_m, k, ai) -> TechEvaluation:
    """The one evaluation of the technology: a single core pass.  Inputs
    must be strictly positive."""
    y, f_lc, f_lm, f_k, f_ai = _core(tech, l_c, l_m, k, ai)
    return TechEvaluation(
        y=y, f_lc=f_lc, f_lm=f_lm, f_k=f_k, f_ai=f_ai,
        fw_k=f_k + (1.0 - tech.delta_k),
        fw_ai=f_ai + (1.0 - tech.delta_ai),
    )


def mpl_ratio_gradient(tech: TechnologyParams, ev: TechEvaluation, l_c, l_m, k, ai):
    """Gradient of r = F_Lc / F_Lm with respect to (L_c, L_m, K, AI).

    ``ev`` is :func:`evaluate` at the same point; the gradient reads its
    marginal products and makes no core pass of its own.  log r is linear
    in the logs of the inputs and of the CES bundles, so each partial is
    r * e / x for an elasticity e.  A bundle's elasticity in one input is
    that input's share of it, read off the marginal products because the
    bundles are homogeneous of degree one.  Exponents within LOG_LIMIT of
    zero count as zero, as in ``_ces``; so Cobb-Douglas's K and AI partials
    are exactly 0.
    """
    sigma, rho_c, rho_m = (0.0 if abs(e) < LOG_LIMIT else e for e in _exponents(tech))
    f_lc, f_lm, f_k, f_ai = ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai
    r = f_lc / f_lm
    kf = k * f_k
    if tech.form is TechForm.NEST_SUBSTITUTE_COGNITIVE:
        # N = L_c + a_ai * AI stands in for L_c in the cognitive bundle
        n = l_c + tech.a_ai * ai
        s_k = kf / (kf + n * f_lc)
        d_n = r * ((sigma - rho_c) * (1.0 - s_k) - (1.0 - rho_c)) / n
        return d_n, r * (1.0 - sigma) / l_m, r * (sigma - rho_c) * s_k / k, d_n * tech.a_ai
    s_k = kf / (kf + l_c * f_lc)
    af = ai * f_ai
    s_a = af / (af + l_m * f_lm)
    return (
        r * ((sigma - rho_c) * (1.0 - s_k) - (1.0 - rho_c)) / l_c,
        r * ((1.0 - rho_m) - (sigma - rho_m) * (1.0 - s_a)) / l_m,
        r * (sigma - rho_c) * s_k / k,
        r * (rho_m - sigma) * s_a / ai,
    )


# the entries of a symmetric 4 x 4 matrix in (L_c, L_m, K, AI), each pair
# of inputs once: row by row from the diagonal
PAIRS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def hessian(tech: TechnologyParams, ev: TechEvaluation, l_c, l_m, k, ai) -> tuple:
    """Hessian of F with respect to (L_c, L_m, K, AI): its ten entries in
    ``PAIRS`` order, on floats at one point or on arrays of points.

    ``ev`` is :func:`evaluate` at the same point.  A CES aggregate G of
    exponent rho has G_xy = (1 - rho) G_x G_y / G, so for inputs a != b

        F_ab = F_a F_b / Y * ((1 - sigma) + [a, b in one bundle] (sigma - rho) / s),

    s being that bundle's share of output, and an input's own curvature
    adds -(1 - rho) F_a / a on the diagonal.  Everything is read off the
    marginal products.  In ``nest_substitute_cognitive`` L_c and AI enter
    as one input N = L_c + a_ai AI, so their entries share N's curvature,
    and L_m is the manual bundle by itself (exponent 1: no curvature of its
    own).  Exponents within LOG_LIMIT of zero count as zero, as in
    ``_ces``.  Each entry is straight-line arithmetic, the same on floats
    and on arrays.
    """
    sigma, rho_c, rho_m = (0.0 if abs(e) < LOG_LIMIT else e for e in _exponents(tech))
    y, f_lc, f_lm, f_k, f_ai = ev.y, ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai
    across = 1.0 - sigma
    if tech.form is TechForm.NEST_SUBSTITUTE_COGNITIVE:
        a_ai = tech.a_ai
        curved = (1.0 - rho_c) * (f_lc / (l_c + a_ai * ai))  # N's own curvature
        cog = (sigma - rho_c) / ((l_c * f_lc + k * f_k + ai * f_ai) / y) + across
        man = (sigma - 1.0) / (l_m * f_lm / y) + across
        return (f_lc * f_lc / y * cog - curved, f_lc * f_lm / y * across,
                f_lc * f_k / y * cog, f_lc * f_ai / y * cog - curved * a_ai,
                f_lm * f_lm / y * man, f_lm * f_k / y * across, f_lm * f_ai / y * across,
                f_k * f_k / y * cog - (1.0 - rho_c) * f_k / k, f_k * f_ai / y * cog,
                f_ai * f_ai / y * cog - curved * (a_ai * a_ai))
    cog = (sigma - rho_c) / ((l_c * f_lc + k * f_k) / y) + across
    man = (sigma - rho_m) / ((l_m * f_lm + ai * f_ai) / y) + across
    return (f_lc * f_lc / y * cog - (1.0 - rho_c) * f_lc / l_c, f_lc * f_lm / y * across,
            f_lc * f_k / y * cog, f_lc * f_ai / y * across,
            f_lm * f_lm / y * man - (1.0 - rho_m) * f_lm / l_m, f_lm * f_k / y * across,
            f_lm * f_ai / y * man,
            f_k * f_k / y * cog - (1.0 - rho_c) * f_k / k, f_k * f_ai / y * across,
            f_ai * f_ai / y * man - (1.0 - rho_m) * f_ai / ai)


def mpl_ratio_hessian(tech: TechnologyParams, ev: TechEvaluation, grad,
                      l_c, l_m, k, ai) -> tuple:
    """Hessian of r = F_Lc / F_Lm with respect to (L_c, L_m, K, AI): its
    ten entries in ``PAIRS`` order, on floats at one point or on arrays of
    points.

    ``ev`` is :func:`evaluate` and ``grad`` :func:`mpl_ratio_gradient` at
    the same point.  Each partial is g_a = r e_a / x_a, and the elasticity
    e_a moves only through the bundle shares, s' = rho s (1 - s) per log
    input, so

        H = g g' / r + r * sum_bundles (sigma - rho) rho s (1 - s) v v' - diag(g / x),

    with v the bundle's signed inverse inputs: -1/x for the labor, +1/x for
    the stock.  In ``nest_substitute_cognitive`` the cognitive bundle's
    second input is N = L_c + a_ai AI, so L_c and AI share N's terms, and
    the manual bundle L_m has no share.  Exponents within LOG_LIMIT of zero
    count as zero, as in :func:`mpl_ratio_gradient`.  A pair in no common
    bundle has only its g g' / r entry.
    """
    sigma, rho_c, rho_m = (0.0 if abs(e) < LOG_LIMIT else e for e in _exponents(tech))
    g_lc, g_lm, g_k, g_ai = grad
    r = ev.f_lc / ev.f_lm
    kf = k * ev.f_k
    if tech.form is TechForm.NEST_SUBSTITUTE_COGNITIVE:
        a_ai = tech.a_ai
        n = l_c + a_ai * ai
        s_k = kf / (kf + n * ev.f_lc)
        bent = (sigma - rho_c) * rho_c * s_k * (1.0 - s_k)
        v_n, v_k, v_ai = -1.0 / n, 1.0 / k, -a_ai / n
        own = g_lc / n  # N's own term
        return (g_lc * g_lc / r + r * (bent * (v_n * v_n)) - own, g_lc * g_lm / r,
                g_lc * g_k / r + r * (bent * (v_n * v_k)),
                g_lc * g_ai / r + r * (bent * (v_n * v_ai)) - own * a_ai,
                g_lm * g_lm / r - g_lm / l_m, g_lm * g_k / r, g_lm * g_ai / r,
                g_k * g_k / r + r * (bent * (v_k * v_k)) - g_k / k,
                g_k * g_ai / r + r * (bent * (v_k * v_ai)),
                g_ai * g_ai / r + r * (bent * (v_ai * v_ai)) - own * (a_ai * a_ai))
    s_k = kf / (kf + l_c * ev.f_lc)
    af = ai * ev.f_ai
    s_a = af / (af + l_m * ev.f_lm)
    bent_c = (sigma - rho_c) * rho_c * s_k * (1.0 - s_k)
    bent_m = (rho_m - sigma) * rho_m * s_a * (1.0 - s_a)
    v_lc, v_k, v_lm, v_ai = -1.0 / l_c, 1.0 / k, -1.0 / l_m, 1.0 / ai
    return (g_lc * g_lc / r + r * (bent_c * (v_lc * v_lc)) - g_lc / l_c, g_lc * g_lm / r,
            g_lc * g_k / r + r * (bent_c * (v_lc * v_k)), g_lc * g_ai / r,
            g_lm * g_lm / r + r * (bent_m * (v_lm * v_lm)) - g_lm / l_m, g_lm * g_k / r,
            g_lm * g_ai / r + r * (bent_m * (v_lm * v_ai)),
            g_k * g_k / r + r * (bent_c * (v_k * v_k)) - g_k / k, g_k * g_ai / r,
            g_ai * g_ai / r + r * (bent_m * (v_ai * v_ai)) - g_ai / ai)


@dataclass(frozen=True)
class AssumptionCheck:
    """Verdict for one factor-bias assumption over the grid."""

    name: str
    verdict: str
    worst_value: float
    worst_point: tuple[float, float, float, float]
    axis: str


@dataclass(frozen=True)
class AssumptionReport:
    a1: AssumptionCheck
    a2: AssumptionCheck
    a3: AssumptionCheck

    @property
    def all_pass(self) -> bool:
        return all(c.verdict == VERDICT_PASS for c in (self.a1, self.a2, self.a3))

    def checks(self) -> tuple[AssumptionCheck, ...]:
        return (self.a1, self.a2, self.a3)


# the sign each partial of r must have, in (L_c, L_m, K, AI) order, and
# each assumption's conditions as (partial, axis name)
_SIGNS = np.array([[-1.0], [+1.0], [+1.0], [-1.0]])
_PARTIALS = np.arange(4)
_ASSUMPTIONS = (("A1", ((2, "K"),)), ("A2", ((3, "AI"),)), ("A3", ((0, "L_c"), (1, "L_m"))))


def check_assumptions(tech: TechnologyParams, center=(1.0, 1.0, 1.0, 1.0), factor: float = 2.0,
                      points: int = 5) -> AssumptionReport:
    """Sign-check the factor-bias assumptions on a log-spaced grid.

    The grid spans [x / factor, x * factor] with ``points`` points on each
    axis of (L_c, L_m, K, AI) around ``center``.  Each assumption is a
    strict sign requirement on a partial of F_Lc / F_Lm from
    :func:`mpl_ratio_gradient`, applied at every grid point.  A wrong sign
    beyond TOL_STRICT anywhere fails; magnitudes within TOL_STRICT make the
    verdict ``non_strict`` (the Cobb-Douglas control lands here for A1/A2,
    whose partials are exactly 0).  An assumption's worst point is where
    its signed margin is smallest, the first such grid point in C order,
    and the first condition's on a tie.  All four partials are judged in
    one stacked pass.  A factor that is not finite or not above 1, fewer
    than 3 points, or a grid on which a derivative is not finite raises
    DomainError.
    """
    if not (np.isfinite(factor) and factor > 1.0):
        raise DomainError(f"grid factor must be finite and exceed 1, got {factor}")
    if points < 3:
        raise DomainError(f"grid points must be at least 3, got {points}")
    shape = (points,) * 4
    derivs = np.empty((4, points**4))
    with np.errstate(all="ignore"):
        axes = np.geomspace(np.divide(center, factor), np.multiply(center, factor), points, axis=-1)
        mesh = np.ix_(*axes)
        derivs.reshape(4, *shape)[...] = mpl_ratio_gradient(tech, evaluate(tech, *mesh), *mesh)
    if not np.isfinite(derivs).all():
        spans = ", ".join(f"{name} [{axis.min():g}, {axis.max():g}]" for name, axis in
                          zip(("L_c", "L_m", "K", "AI"), axes))
        raise DomainError(f"ratio derivatives must be finite on the grid {spans}")

    margin = _SIGNS * derivs
    worst = np.argmin(margin, axis=1)  # each partial's first smallest margin
    low = margin[_PARTIALS, worst].tolist()
    value = derivs[_PARTIALS, worst].tolist()
    where = axes[_PARTIALS[:, None], np.unravel_index(worst, shape)].T.tolist()
    checks = []
    for name, conditions in _ASSUMPTIONS:
        i, axis = min(conditions, key=lambda c: low[c[0]])  # the first on a tie
        # the smallest margin decides: below -TOL_STRICT a wrong sign somewhere,
        # else within TOL_STRICT a partial within TOL_STRICT of zero somewhere
        if low[i] < -TOL_STRICT:
            verdict = VERDICT_FAIL
        elif low[i] <= TOL_STRICT:
            verdict = VERDICT_NON_STRICT
        else:
            verdict = VERDICT_PASS
        checks.append(AssumptionCheck(name, verdict, value[i], tuple(where[i]), axis))
    return AssumptionReport(*checks)
