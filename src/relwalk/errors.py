"""Exception types shared across the package.

ConfigError maps to CLI exit code 2, NumericalError and its
subclasses map to exit code 3.
"""


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class NumericalError(Exception):
    """A computation failed or left its validity envelope."""


class SingularSystemError(NumericalError):
    """Tridiagonal solve hit a singular (or numerically singular) matrix."""


class TailTruncationError(NumericalError):
    """Momentum grid too short to hold the equilibrium tail."""


class StepSizeError(NumericalError):
    """Local error estimate of a time step exceeded its tolerance."""


class SymmetryError(NumericalError):
    """A state violated a symmetry the algorithm relies on."""


class SignConventionError(NumericalError):
    """Cumulative flux integral went negative where the density is resolved."""


class DegenerateMetricError(NumericalError):
    """A profile leaves no region where the diffusion metric is defined."""
