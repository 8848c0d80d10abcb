"""Continuous-variable Bell-CHSH analysis of Laguerre-Gaussian vortex beams.

The package evaluates LG/HG transverse modes and their Schmidt (LG -> HG)
decomposition, closed-form and numeric Wigner functions, Bell-CHSH sums over
phase-space settings with exact-derivative Newton maximization, and quadrature
correlation coefficients — everything in dimensionless scaled coordinates.
Each module's ``__all__`` is the one statement of what it makes public.
"""

from . import bell, correlation, modes, quadrature, specfun, wigner
from .bell import *  # noqa: F401,F403
from .correlation import *  # noqa: F401,F403
from .modes import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .wigner import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (bell, correlation, modes, quadrature, specfun, wigner)
    for name in module.__all__
]
