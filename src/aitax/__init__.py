"""Constrained-efficient allocations and tax wedges for a two-worker-type
economy accumulating traditional and AI capital.

The planner maximizes population-weighted utility subject to feasibility
and to lifetime incentive-compatibility constraints between the two
types.  Which constraint binds decides the sign pattern of the capital,
AI, and labor wedges; `solve_steady_state` / `solve_finite_horizon`
compute allocations, `wedges` turns them into tax wedges and sign
verdicts, `sweep` locates the parameter threshold where the binding
side flips, and `oracle` cross-checks the solver against a brute-force
grid search.
"""

__version__ = "0.1.0"

from .economy import (
    AgentKind,
    AgentTypeParams,
    EconomyConfig,
    PreferenceParams,
    SolveMode,
    TechForm,
    TechnologyParams,
    UtilityForm,
    validate_config,
)
from .oracle import AxisSpec, GridSpec, brute_force_steady
from .planner import (
    PlannerSolution,
    Regime,
    first_best,
    foc_residuals,
    solve_finite_horizon,
    solve_steady_state,
)
from .presets import (
    cobb_douglas_economy,
    regime_a_economy,
    regime_b_economy,
    symmetric_economy,
    threshold_economy,
)
from .sweep import apply_ubi, find_threshold, sweep
from .wedges import (
    compute_wedge_report,
    intertemporal_wedge,
    intratemporal_wedge,
    verify_propositions,
    wedge_via_multipliers,
)

__all__ = [
    "AgentKind",
    "AgentTypeParams",
    "AxisSpec",
    "EconomyConfig",
    "GridSpec",
    "PlannerSolution",
    "PreferenceParams",
    "Regime",
    "SolveMode",
    "TechForm",
    "TechnologyParams",
    "UtilityForm",
    "apply_ubi",
    "brute_force_steady",
    "cobb_douglas_economy",
    "compute_wedge_report",
    "find_threshold",
    "first_best",
    "foc_residuals",
    "intertemporal_wedge",
    "intratemporal_wedge",
    "regime_a_economy",
    "regime_b_economy",
    "solve_finite_horizon",
    "solve_steady_state",
    "sweep",
    "symmetric_economy",
    "threshold_economy",
    "validate_config",
    "verify_propositions",
    "wedge_via_multipliers",
    "__version__",
]
