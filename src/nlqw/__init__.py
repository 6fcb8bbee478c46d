"""Simulator and numerical toolkit for nonlinear discrete-time quantum
walks on the one-dimensional integer lattice.

The package is organized around a small set of concepts: two-component
lattice states, intensity-dependent coin families, the walk step (coin then
component shift), Fourier-side analysis of the linear walk, and the
scattering machinery that compares nonlinear runs against their linear
asymptotics.
"""

from . import coins, evolution, scattering, spectral, state
from .state import *
from .coins import *
from .evolution import *
from .spectral import *
from .scattering import *

__version__ = "0.1.0"

__all__ = [
    *state.__all__,
    *coins.__all__,
    *evolution.__all__,
    *spectral.__all__,
    *scattering.__all__,
    "__version__",
]
