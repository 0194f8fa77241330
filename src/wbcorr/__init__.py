"""Exact combinatorics of weighted-blowup correspondences.

Computes, over exact rationals: twisted-sector combinatorics of cyclic
weighted-projective local models, fiber-class label rankings and moduli
dimensions (with an independent oracle), closed-form fiber-class relative
invariants (with a fixed-point oracle), the relative/absolute data
correspondence over formal pair models, the degeneration order relation,
and assembly/solution of the lower-triangular transfer matrix.
"""

from .correspondence import *
from .errors import *
from .invariants import *
from .local_model import *
from .pair_model import *
from .ranking import *
from .rationals import *

__version__ = "0.1.0"

__all__ = (
    correspondence.__all__
    + errors.__all__
    + invariants.__all__
    + local_model.__all__
    + pair_model.__all__
    + ranking.__all__
    + rationals.__all__
)
