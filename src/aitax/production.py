"""Production technology: output, marginal products, wages, factor-bias checks.

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

Core evaluation is written with plain arithmetic so the same code path
accepts floats, numpy arrays, and complex inputs; the complex path powers
machine-precision ratio derivatives via complex-step differentiation.
Nothing here checks its inputs' domain (nonnegative for output, strictly
positive otherwise): callers keep them there, and values from outside the
program are checked where they enter (``planner.foc_residuals``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import EconomyConfig, TechForm, TechnologyParams
from .errors import DomainError

# exponents closer to zero than this use the exact log-limit branch
LOG_LIMIT = 1e-6

# relative step for the central differences in check_assumptions
ASSUMPTION_STEP_REL = 1e-4

# strictness margin on ratio derivatives
TOL_STRICT = 1e-8

# complex-step relative size; no subtractive cancellation, so tiny is fine
_CS_STEP = 1e-20

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


def output(tech: TechnologyParams, l_c, l_m, k, ai):
    """Final-good output F(L_c, L_m, K, AI).  Inputs must be nonnegative."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = _core(tech, l_c, l_m, k, ai)[0]
    return float(y) if np.ndim(y) == 0 else y


def total_wealth(tech: TechnologyParams, l_c, l_m, k, ai):
    """Output plus undepreciated stocks: F + (1-delta_k)K + (1-delta_ai)AI."""
    y = output(tech, l_c, l_m, k, ai)
    return y + (1.0 - tech.delta_k) * k + (1.0 - tech.delta_ai) * ai


@dataclass(frozen=True)
class MarginalProducts:
    """Partials of output, plus partials of total wealth w.r.t. the stocks."""

    f_lc: float
    f_lm: float
    f_k: float
    f_ai: float
    fw_k: float
    fw_ai: float


def _evaluate(tech: TechnologyParams, l_c, l_m, k, ai):
    """Output and marginal products from one core pass, strictly positive inputs."""
    y, f_lc, f_lm, f_k, f_ai = _core(tech, l_c, l_m, k, ai)
    return y, MarginalProducts(
        f_lc=f_lc,
        f_lm=f_lm,
        f_k=f_k,
        f_ai=f_ai,
        fw_k=f_k + (1.0 - tech.delta_k),
        fw_ai=f_ai + (1.0 - tech.delta_ai),
    )


def marginal_products(tech: TechnologyParams, l_c, l_m, k, ai) -> MarginalProducts:
    """Analytic first derivatives of output.  Inputs must be strictly positive."""
    return _evaluate(tech, l_c, l_m, k, ai)[1]


def wages(tech: TechnologyParams, config: EconomyConfig, l_c, l_m, k, ai):
    """Competitive wages (w_c, w_m) = (F_Lc * z_c, F_Lm * z_m)."""
    mp = marginal_products(tech, l_c, l_m, k, ai)
    return mp.f_lc * config.cognitive.z, mp.f_lm * config.manual.z


@dataclass(frozen=True)
class TechEvaluation:
    """Output, marginal products and wages at one input point."""

    y: float
    mp: MarginalProducts
    w_c: float
    w_m: float


def evaluate(tech: TechnologyParams, config: EconomyConfig, l_c, l_m, k, ai) -> TechEvaluation:
    """Everything the planner FOCs need at one point, in a single core pass."""
    y, mp = _evaluate(tech, l_c, l_m, k, ai)
    return TechEvaluation(y=y, mp=mp, w_c=mp.f_lc * config.cognitive.z, w_m=mp.f_lm * config.manual.z)


def mpl_ratio(tech: TechnologyParams, l_c, l_m, k, ai):
    """Ratio of labor marginal products F_Lc / F_Lm."""
    _, f_lc, f_lm, _, _ = _core(tech, l_c, l_m, k, ai)
    return f_lc / f_lm


def mpl_ratio_gradient(tech: TechnologyParams, l_c, l_m, k, ai):
    """Gradient of F_Lc / F_Lm with respect to (L_c, L_m, K, AI).

    Uses complex-step differentiation of the analytic marginal products,
    which is exact to machine precision for these smooth positive forms.
    On arrays the four step directions share one core pass, on a leading
    axis; scalars take four scalar passes, which cost about half as much.
    Both round alike to within a few ulps.
    """
    base = [l_c, l_m, k, ai]
    steps = [_CS_STEP * v for v in base]
    if all(np.ndim(v) == 0 for v in base):
        grad = []
        for i in range(4):
            args = list(base)
            args[i] = args[i] + 1j * steps[i]
            _, f_lc, f_lm, _, _ = _core(tech, *args)
            grad.append((f_lc / f_lm).imag / steps[i])
        return tuple(grad)
    shape = (4,) + np.broadcast_shapes(*map(np.shape, base))
    args = [np.broadcast_to(v, shape).astype(complex) for v in base]
    for i in range(4):
        args[i][i] += 1j * steps[i]
    _, f_lc, f_lm, _, _ = _core(tech, *args)
    ratio = (f_lc / f_lm).imag
    return tuple(ratio[i] / steps[i] for i in range(4))


def grad_check(tech: TechnologyParams, point, step: float) -> float:
    """Max relative gap between analytic and central-difference marginal products.

    ``point`` is (L_c, L_m, K, AI); the relative gap divides by
    max(1, |analytic|) per component.
    """
    pt = [float(v) for v in point]
    if len(pt) != 4:
        raise DomainError(f"point must have 4 coordinates, got {len(pt)}")
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    if step >= min(pt):
        raise DomainError(f"step {step} is too large for point {pt}")
    mp = marginal_products(tech, *pt)
    analytic = (mp.f_lc, mp.f_lm, mp.f_k, mp.f_ai)
    worst = 0.0
    for i in range(4):
        hi = list(pt)
        lo = list(pt)
        hi[i] += step
        lo[i] -= step
        numeric = (output(tech, *hi) - output(tech, *lo)) / (2.0 * step)
        err = abs(numeric - analytic[i]) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class Grid4:
    """Rectangular evaluation grid over (L_c, L_m, K, AI)."""

    l_c: np.ndarray
    l_m: np.ndarray
    k: np.ndarray
    ai: np.ndarray

    def __post_init__(self):
        for name in ("l_c", "l_m", "k", "ai"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or len(arr) < 3:
                raise DomainError(f"grid axis {name} needs at least 3 points")
            if not np.all(np.isfinite(arr) & (arr > 0.0)):
                raise DomainError(f"grid axis {name} must be finite and strictly positive")
            object.__setattr__(self, name, arr)

    @classmethod
    def log_around(cls, center=(1.0, 1.0, 1.0, 1.0), factor: float = 2.0, points: int = 5) -> "Grid4":
        """Log-spaced box [x/factor, x*factor] on each axis around ``center``."""
        if not (np.isfinite(factor) and factor > 1.0):
            raise DomainError(f"grid factor must be finite and exceed 1, got {factor}")
        if points < 3:
            raise DomainError(f"grid points must be at least 3, got {points}")
        axes = [np.geomspace(c / factor, c * factor, points) for c in center]
        return cls(*axes)


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


def _ratio_central_diffs(tech, mesh):
    """Elementwise d(mpl_ratio)/d(axis) along each of the four axes, by
    central differences with relative step.

    The eight shifted meshes share one ``mpl_ratio`` pass, on a leading
    axis: shifts 2a and 2a + 1 move axis a up and down.
    """
    steps = [ASSUMPTION_STEP_REL * v for v in mesh]
    shifted = [np.repeat(v[None], 8, axis=0) for v in mesh]
    for a in range(4):
        shifted[a][2 * a] += steps[a]
        shifted[a][2 * a + 1] -= steps[a]
    r = mpl_ratio(tech, *shifted)
    return [(r[2 * a] - r[2 * a + 1]) / (2.0 * steps[a]) for a in range(4)]


def _judge(conditions, mesh) -> tuple[str, float, tuple, str]:
    """Combine signed derivative conditions into one verdict.

    ``conditions`` is a list of (axis_name, derivative_array, required_sign).
    The worst point is the one with the smallest signed margin.
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
            point = tuple(float(ax[idx]) for ax in mesh)
            worst = (float(deriv[idx]), point, axis_name)
        if np.any(margin < -TOL_STRICT):
            verdict = VERDICT_FAIL
        elif verdict != VERDICT_FAIL and np.any(np.abs(deriv) <= TOL_STRICT):
            verdict = VERDICT_NON_STRICT
    return verdict, worst[0], worst[1], worst[2]


def check_assumptions(tech: TechnologyParams, grid: Grid4 | None = None) -> AssumptionReport:
    """Sign-check the factor-bias assumptions on a rectangular grid.

    Each assumption is a strict sign requirement on a central-difference
    derivative of F_Lc / F_Lm, applied at every grid point.  A wrong sign
    beyond TOL_STRICT anywhere fails; magnitudes within TOL_STRICT make the
    verdict ``non_strict`` (the Cobb-Douglas control lands here for A1/A2).
    A grid on which a derivative is not finite raises DomainError.
    """
    if grid is None:
        grid = Grid4.log_around()
    mesh = np.meshgrid(grid.l_c, grid.l_m, grid.k, grid.ai, indexing="ij")
    with np.errstate(all="ignore"):
        diffs = d_lc, d_lm, d_k, d_ai = _ratio_central_diffs(tech, mesh)
    if not all(np.isfinite(d).all() for d in diffs):
        spans = ", ".join(f"{name} [{axis.min():g}, {axis.max():g}]" for name, axis in
                          zip(("L_c", "L_m", "K", "AI"), (grid.l_c, grid.l_m, grid.k, grid.ai)))
        raise DomainError(f"ratio derivatives must be finite on the grid {spans}")

    a1 = AssumptionCheck("A1", *_judge([("K", d_k, +1.0)], mesh))
    a2 = AssumptionCheck("A2", *_judge([("AI", d_ai, -1.0)], mesh))
    a3 = AssumptionCheck("A3", *_judge([("L_c", d_lc, -1.0), ("L_m", d_lm, +1.0)], mesh))
    return AssumptionReport(a1=a1, a2=a2, a3=a3)
