"""Exact constructions around equivalent continued-fraction expansions:
moment sequences, generalized-moment triangles, production matrices, and
the machinery to verify the worked examples end to end."""

from . import cfrac, pipeline, ring, series, triangle
from .cfrac import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .ring import *  # noqa: F403
from .series import *  # noqa: F403
from .triangle import *  # noqa: F403
from .triangle import mul as matrix_mul

del mul  # noqa: F821  (exported as matrix_mul only)

__version__ = "0.1.0"

__all__ = [
    "matrix_mul" if module is triangle and name == "mul" else name
    for module in (ring, triangle, series, cfrac, pipeline)
    for name in module.__all__
]
