"""P1 triangle finite-element matrix assembly, four ways.

The package builds mass, weighted-mass, stiffness and plane-elasticity
matrices over triangle meshes with four interchangeable strategies, from
naive per-entry insertion into compressed-sparse-column storage up to a
fully batched structure-of-arrays kernel, plus a benchmark CLI that
measures how their costs scale with mesh size.  Each module's ``__all__``
is the one list of its public names; this package exports them all.
"""

__version__ = "0.1.0"  # first: bench imports it

from . import assembly, bench, elements, mesh, sparse
from .assembly import *
from .bench import *
from .elements import *
from .mesh import *
from .sparse import *

__all__ = assembly.__all__ + bench.__all__ + elements.__all__ + mesh.__all__ + sparse.__all__
