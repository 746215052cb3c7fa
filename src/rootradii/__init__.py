"""Polynomial root isolation by root-radii estimation.

Real roots: estimate all root radii by Graeffe squaring plus the Newton
polygon, turn each radius into two candidate intervals, keep the ones with a
sign change, refine with bracketed Newton.  Complex roots: Aberth sweeps
started on the root-radii annuli, certified by Smith's discs; the paper's
intersection of three families of thin annuli from shifted polynomials stays
available.
"""

from . import complexiso, oracle, poly, radii, realiso
from .complexiso import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .poly import *  # noqa: F401,F403
from .radii import *  # noqa: F401,F403
from .realiso import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = poly.__all__ + radii.__all__ + realiso.__all__ + complexiso.__all__ + oracle.__all__
