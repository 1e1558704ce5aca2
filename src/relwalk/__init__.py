"""relwalk: quantum-walk continuum limits and relativistic diffusion transport.

Two subsystems share the numerical kernels in :mod:`relwalk.kernels`:

* :mod:`relwalk.qwalk` and :mod:`relwalk.dirac` simulate coined discrete-time
  quantum walks with slowly modulated angles and certify their continuum limit
  against a (1+1)D Dirac solver with electromagnetic coupling,
* :mod:`relwalk.roup` and :mod:`relwalk.fick` integrate the relativistic
  Ornstein-Uhlenbeck kinetic equation in Fourier space, reconstruct density
  profiles and the propagation front, and extract the diffusion metric of the
  generalised Fick law.
"""

__version__ = "0.1.0"

from .kernels import Grid1D, quad, cumquad, tridiag_solve
from .errors import (
    ConfigError,
    NumericalError,
    SingularSystemError,
    TailTruncationError,
    StepSizeError,
    SymmetryError,
    SignConventionError,
)

__all__ = [
    "__version__",
    "Grid1D",
    "quad",
    "cumquad",
    "tridiag_solve",
    "ConfigError",
    "NumericalError",
    "SingularSystemError",
    "TailTruncationError",
    "StepSizeError",
    "SymmetryError",
    "SignConventionError",
]
