"""Exception types shared across the package."""


class AitaxError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AitaxError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigError(AitaxError, ValueError):
    """A configuration file or config object is malformed."""


class SolverError(AitaxError, RuntimeError):
    """A nonlinear solve did not produce an acceptable solution."""


class NoInteriorSolutionError(SolverError):
    """No interior point found: Newton failed from each of its one or two
    starts, or a cold start's capital presolve found no interior stocks
    (the message names the AI corner, with its K and AI row, where the
    presolve proves its stocks sit there, else the K, AI and residual it
    stopped at)."""


class NoRegimeFoundError(SolverError):
    """No incentive-compatibility regime produced an admissible solution."""


class UbiInfeasibleError(AitaxError, ValueError):
    """The requested transfer exceeds what interior planner consumption allows."""


class EmptyFeasibleSetError(AitaxError, RuntimeError):
    """No grid point satisfies feasibility and incentive constraints."""


class OracleIndeterminateError(AitaxError, RuntimeError):
    """Grid-search relaxation verdict contradicts the slacks at the optimum."""


class ThresholdRangeError(AitaxError, ValueError):
    """Bisection endpoints do not bracket a regime change."""


class OutOfHorizonError(AitaxError, IndexError):
    """A period index lies outside the solution's horizon."""
