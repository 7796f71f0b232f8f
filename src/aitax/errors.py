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
    """Newton failed from each of its one or two starts; no interior point found."""


class NoRegimeFoundError(SolverError):
    """No incentive-compatibility regime produced an admissible solution."""


class InconsistentMultipliersError(AitaxError, ValueError):
    """Multiplier signs contradict the reported constraint slacks."""


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
