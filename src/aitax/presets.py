"""Documented desk economies used by the test suite and docs.

Three calibrations, all with log consumption utility:

* ``symmetric_economy``: identical types and a labor-symmetric complements
  technology; no incentive constraint binds, every wedge is zero.
* ``regime_a_economy``: cognitive skill premium (z_c = 2) with traditional
  capital complementing cognitive labor and weak AI (a_ai = 0.1); the
  cognitive type's incentive constraint binds, so traditional capital is
  taxed and AI subsidized.
* ``threshold_economy``: AI as a direct substitute for cognitive labor.
  At an interior steady state the cognitive wage equals
  z_c * (1/beta - 1 + delta_ai) / a_ai, so raising AI productivity a_ai
  drags it down while the manual wage rises; the binding constraint flips
  from cognitive to manual near a_ai = 0.165 on this calibration.
  ``regime_b_economy`` is this economy at a_ai = 0.2, past the flip.

Calibration notes for the threshold economy: the top-level elasticity is
negative so the scarce manual bundle bounds the return to accumulating
K and AI jointly (an interior steady state then exists for any a_ai);
the cognitive population share is 0.25 and the labor curvature phi = 2,
which keeps cognitive effective labor scarce enough at a_ai = 0.1 for AI
to remain interior while the cognitive type still out-earns the manual
type.  Far past the flip the wage ratio collapses like 1/a_ai and both
capital wedges shrink below measurement scale, so the regime-B desk sits
just past the flip where the wedges are still orders of magnitude above
the sign tolerance.
"""

from __future__ import annotations

from dataclasses import replace

from .economy import (
    AgentKind,
    AgentTypeParams,
    EconomyConfig,
    PreferenceParams,
    TechForm,
    TechnologyParams,
)

REGIME_B_A_AI = 0.2
SWEEP_LO = 0.1


def symmetric_economy() -> EconomyConfig:
    """Identical types; first best is incentive-compatible, all wedges zero."""
    return EconomyConfig(
        cognitive=AgentTypeParams(kind=AgentKind.COGNITIVE, pi=0.5, z=1.0),
        manual=AgentTypeParams(kind=AgentKind.MANUAL, pi=0.5, z=1.0),
        prefs=PreferenceParams(beta=0.96),
        tech=TechnologyParams(
            form=TechForm.NEST_COMPLEMENTS,
            a=1.0,
            mu_top=0.5,
            lambda_c=0.4,
            theta_m=0.4,
            sigma_top=0.5,
            rho_c=-1.0,
            rho_m=-1.0,
            a_ai=1.0,
            delta_k=0.08,
            delta_ai=0.08,
        ),
    )


def regime_a_economy() -> EconomyConfig:
    """Skill premium + K-cognitive complementarity + weak AI: cognitive binds."""
    base = symmetric_economy()
    return replace(
        base,
        cognitive=replace(base.cognitive, z=2.0),
        tech=replace(base.tech, a_ai=0.1),
    )


def threshold_economy(a_ai: float = SWEEP_LO) -> EconomyConfig:
    """Substitute-form economy whose binding regime flips as a_ai grows."""
    return EconomyConfig(
        cognitive=AgentTypeParams(kind=AgentKind.COGNITIVE, pi=0.25, z=2.0),
        manual=AgentTypeParams(kind=AgentKind.MANUAL, pi=0.75, z=1.0),
        prefs=PreferenceParams(beta=0.96, psi=1.0, phi=2.0),
        tech=TechnologyParams(
            form=TechForm.NEST_SUBSTITUTE_COGNITIVE,
            a=2.0,
            mu_top=0.8,
            lambda_c=0.5,
            theta_m=0.5,
            sigma_top=-0.5,
            rho_c=-2.0,
            rho_m=-1.0,
            a_ai=a_ai,
            delta_k=0.08,
            delta_ai=0.1,
        ),
    )


def regime_b_economy() -> EconomyConfig:
    """Threshold economy just past the flip: manual binds, AI taxed, K subsidized."""
    return threshold_economy(a_ai=REGIME_B_A_AI)


def cobb_douglas_economy() -> EconomyConfig:
    """Negative control: wage ratio independent of both stocks (A1/A2 non-strict)."""
    base = symmetric_economy()
    return replace(base, tech=replace(base.tech, form=TechForm.COBB_DOUGLAS))
