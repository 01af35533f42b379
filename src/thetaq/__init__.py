"""thetaq: exact truncated q-series engine.

Expands Jacobi theta functions (with affine argument transformations),
Dedekind eta powers, the classical two-variable thetas, and the N=3
character numerators as sparse bivariate Laurent-Puiseux series over
Q(zeta_8); verifies a registry of identities exactly; and computes
branching coefficients of character products by exact linear decomposition.
"""

from ._rational import BACKEND, INF, rat, rat_from_str, rat_str
from .cyclo import CycloNum, PhaseError, phase
from .linsolve import Decomposition, decompose, membership
from .series import InsufficientOrderError, NonUnitLeadingError, Series
from .thetalib import bracket, eta, mumford, theta, theta_pm

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "INF",
    "CycloNum",
    "Decomposition",
    "InsufficientOrderError",
    "NonUnitLeadingError",
    "PhaseError",
    "Series",
    "bracket",
    "decompose",
    "eta",
    "membership",
    "mumford",
    "phase",
    "rat",
    "rat_from_str",
    "rat_str",
    "theta",
    "theta_pm",
    "__version__",
]
