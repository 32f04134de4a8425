"""osinv: invariants of homogeneous Hilbertian operator spaces.

Represents spaces by their fundamental functions (exact piecewise
power-law tables), derives each regular space's canonical weight pair
from them, and computes growth functions, Orlicz and Schatten-Orlicz
norms, exactness and projection constants, and the fundamental sequence
of the completely-1-summing ideal — each backed by an independent
cross-checking oracle.

The top level holds only the names of the README's Quick start; every
other name is imported from its module (``osinv.orlicz``,
``osinv.schatten``, ...).
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .invariants import exactness, pi1_fundamental, projection, sweep
from .monotone_fn import evaluate
from .spaces import catalog, from_fundamental, fundamental_from_weights

__all__ = [
    "__version__",
    "errors",
    "catalog",
    "from_fundamental",
    "fundamental_from_weights",
    "exactness",
    "projection",
    "pi1_fundamental",
    "sweep",
    "evaluate",
]
