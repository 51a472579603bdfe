"""Racks, quandles, their free products, quasimorphisms, and exact certificates.

The package exposes exactly the public names that its modules list in
their ``__all__``.
"""

from .words import *
from .racks import *
from .adjoint import *
from .free_product import *
from .sampling import *
from .quasimorphism import *
from .cochain import *
from .certify import *
from .linalg import *

__version__ = "0.1.0"
