"""Economy primitives: agent types, preferences, technology parameters, config validation.

The economy has two worker types (cognitive and manual), two reproducible
stocks (traditional capital and AI capital), and a single final good.  All
configuration objects are frozen dataclasses; solver code never mutates them.
Their fields, in declaration order and with their types and defaults, are
the config file's keys (``configio``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DomainError


class AgentKind(str, enum.Enum):
    COGNITIVE = "cognitive"
    MANUAL = "manual"

    @property
    def other(self) -> "AgentKind":
        return AgentKind.MANUAL if self is AgentKind.COGNITIVE else AgentKind.COGNITIVE


class UtilityForm(str, enum.Enum):
    LOG = "log"
    CRRA = "crra"


class TechForm(str, enum.Enum):
    NEST_COMPLEMENTS = "nest_complements"
    NEST_SUBSTITUTE_COGNITIVE = "nest_substitute_cognitive"
    COBB_DOUGLAS = "cobb_douglas"


class SolveMode(str, enum.Enum):
    STEADY_STATE = "steady_state"
    FINITE_HORIZON = "finite_horizon"


@dataclass(frozen=True)
class AgentTypeParams:
    """One worker type: population share pi and labor productivity z."""

    kind: AgentKind
    pi: float
    z: float


@dataclass(frozen=True)
class PreferenceParams:
    """Per-period utility u(c) - nu(l).

    u is log or CRRA (c**(1-gamma)/(1-gamma)); nu(l) = psi * l**(1+phi) / (1+phi).
    """

    beta: float
    u_form: UtilityForm = UtilityForm.LOG
    gamma: float | None = None
    psi: float = 1.0
    phi: float = 1.0


@dataclass(frozen=True)
class TechnologyParams:
    """Nested production technology over (L_c, L_m, K, AI).

    ``a`` is the Hicks-neutral scale, ``a_ai`` converts AI stock into
    efficiency units.  Share parameters are mu_top (cognitive bundle at the
    top nest), lambda_c (capital inside the cognitive bundle) and theta_m
    (AI inside the manual bundle, used only by nest_complements).  Exponents
    sigma_top, rho_c, rho_m are CES exponents; values within 1e-6 of zero
    route to the exact Cobb-Douglas limit branch.
    """

    form: TechForm
    a: float = 1.0
    mu_top: float = 0.5
    lambda_c: float = 0.5
    theta_m: float = 0.5
    sigma_top: float = 0.5
    rho_c: float = -1.0
    rho_m: float = -1.0
    a_ai: float = 1.0
    delta_k: float = 0.08
    delta_ai: float = 0.08


@dataclass(frozen=True)
class EconomyConfig:
    """Full planner problem instance."""

    cognitive: AgentTypeParams
    manual: AgentTypeParams
    prefs: PreferenceParams
    tech: TechnologyParams
    g: float = 0.0
    k0: float = 0.0
    ai0: float = 0.0
    mode: SolveMode = SolveMode.STEADY_STATE
    horizon: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[tuple[str, str], ...] = ()

    def messages(self) -> list[str]:
        return [f"{fld}: {msg}" for fld, msg in self.failures]


@dataclass(frozen=True)
class Allocation:
    """Per-period quantities.

    Arrays are indexed by period; steady-state solutions carry length-1
    arrays.  ``k`` and ``ai`` have one extra trailing entry: the stock
    carried out of the final period (for a steady state, k[0] repeated).
    Effective labor eff_l_h = pi_h * l_h * z_h is stored redundantly for
    reporting and consistency checks.
    """

    c_c: np.ndarray
    c_m: np.ndarray
    l_c: np.ndarray
    l_m: np.ndarray
    eff_l_c: np.ndarray
    eff_l_m: np.ndarray
    k: np.ndarray
    ai: np.ndarray

    @property
    def n_periods(self) -> int:
        return len(self.c_c)


# EconomyConfig section (None for a top-level field) -> the dotted-key prefix
# of its fields in config files and validation messages
SECTION_PREFIXES = {"cognitive": "agents.cognitive.", "manual": "agents.manual.",
                    "prefs": "prefs.", "tech": "tech.", None: ""}
_SHARE_FIELDS = ("mu_top", "lambda_c", "theta_m")
_EXPONENT_FIELDS = ("sigma_top", "rho_c", "rho_m")


def validate_config(config: EconomyConfig) -> ValidationReport:
    """Check every config invariant; returns all failures, not just the first."""
    # non-finite values are caught first; the checks below would misjudge
    # them (``not 0 < nan < 1`` is true), so their fields are not judged again
    nonfinite: list[tuple[str, str]] = []
    for section, prefix in SECTION_PREFIXES.items():
        params = getattr(config, section) if section else config
        for fld in fields(params):
            v = getattr(params, fld.name)
            if isinstance(v, float) and not math.isfinite(v):
                nonfinite.append((f"{prefix}{fld.name}", f"must be finite, got {v}"))
    skip = {name for name, _ in nonfinite}

    bad: list[tuple[str, str]] = []

    for slot, agent in (("cognitive", config.cognitive), ("manual", config.manual)):
        if agent.kind.value != slot:
            bad.append((f"agents.{slot}.kind", f"expected kind {slot!r}, got {agent.kind.value!r}"))
        if not 0.0 < agent.pi < 1.0:
            bad.append((f"agents.{slot}.pi", f"population share must lie in (0, 1), got {agent.pi}"))
        if agent.z <= 0.0:
            bad.append((f"agents.{slot}.z", f"productivity must be positive, got {agent.z}"))
    pi_sum = config.cognitive.pi + config.manual.pi
    if abs(pi_sum - 1.0) > 1e-12:
        bad.append(("agents", f"population shares must sum to 1, got {pi_sum}"))

    p = config.prefs
    if not 0.0 < p.beta < 1.0:
        bad.append(("prefs.beta", f"discount factor must lie in (0, 1), got {p.beta}"))
    if p.u_form is UtilityForm.CRRA:
        if p.gamma is None:
            bad.append(("prefs.gamma", "gamma is required for crra utility"))
        elif p.gamma <= 0.0 or p.gamma == 1.0:
            bad.append(("prefs.gamma", f"gamma must be positive and != 1, got {p.gamma}"))
    if p.psi <= 0.0:
        bad.append(("prefs.psi", f"disutility scale must be positive, got {p.psi}"))
    if p.phi <= 0.0:
        bad.append(("prefs.phi", f"disutility curvature must be positive, got {p.phi}"))

    t = config.tech
    if t.a <= 0.0:
        bad.append(("tech.a", f"scale must be positive, got {t.a}"))
    if t.a_ai <= 0.0:
        bad.append(("tech.a_ai", f"AI productivity must be positive, got {t.a_ai}"))
    for name in _SHARE_FIELDS:
        v = getattr(t, name)
        if not 0.0 < v < 1.0:
            bad.append((f"tech.{name}", f"share must lie in (0, 1), got {v}"))
    for name in _EXPONENT_FIELDS:
        v = getattr(t, name)
        if v > 1.0:
            bad.append((f"tech.{name}", f"CES exponent must be <= 1, got {v}"))
    if t.form is TechForm.NEST_COMPLEMENTS and "tech.sigma_top" not in skip:
        # within-nest complementarity must be stronger than across-nest
        if not t.rho_c < t.sigma_top:
            bad.append(("tech.rho_c", f"need rho_c < sigma_top, got {t.rho_c} >= {t.sigma_top}"))
        if not t.rho_m < t.sigma_top:
            bad.append(("tech.rho_m", f"need rho_m < sigma_top, got {t.rho_m} >= {t.sigma_top}"))
    for name in ("delta_k", "delta_ai"):
        v = getattr(t, name)
        if not 0.0 <= v <= 1.0:
            bad.append((f"tech.{name}", f"depreciation must lie in [0, 1], got {v}"))

    if config.g < 0.0:
        bad.append(("g", f"government spending must be nonnegative, got {config.g}"))
    if config.k0 < 0.0:
        bad.append(("k0", f"initial capital must be nonnegative, got {config.k0}"))
    if config.ai0 < 0.0:
        bad.append(("ai0", f"initial AI stock must be nonnegative, got {config.ai0}"))
    if config.mode is SolveMode.FINITE_HORIZON:
        if config.horizon is None or config.horizon < 1:
            bad.append(("T", f"finite_horizon mode needs T >= 1, got {config.horizon}"))

    failures = nonfinite + [(name, why) for name, why in bad if name not in skip]
    return ValidationReport(ok=not failures, failures=tuple(failures))


def require_valid(config: EconomyConfig) -> None:
    """Raise ConfigError naming every field ``validate_config`` rejects."""
    report = validate_config(config)
    if not report.ok:
        raise ConfigError("; ".join(report.messages()))


# Sweepable parameter names, mapped to their location in the config tree.
SWEEP_PARAMS = {
    "a_AI": ("tech", "a_ai"),
    "z_c": ("cognitive", "z"),
    "z_m": ("manual", "z"),
    "mu_top": ("tech", "mu_top"),
    "theta_m": ("tech", "theta_m"),
    "delta_AI": ("tech", "delta_ai"),
}


def with_param(config: EconomyConfig, name: str, value: float) -> EconomyConfig:
    """Return a copy of ``config`` with one sweepable parameter replaced."""
    try:
        section, fld = SWEEP_PARAMS[name]
    except KeyError:
        raise DomainError(
            f"unknown sweep parameter {name!r}; allowed: {sorted(SWEEP_PARAMS)}"
        ) from None
    inner = replace(getattr(config, section), **{fld: value})
    return replace(config, **{section: inner})
