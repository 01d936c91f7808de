"""Exact knot concordance obstructions.

Modules cover Laurent polynomial norms (Fox-Milnor), Seifert form
signatures at roots of unity, cabling obstructions, Legendrian front
invariants with slice-genus bounds, surgery-presentation homology, and
a catalog-driven command line.  Each module's ``__all__`` lists its
public names; the package republishes them.
"""

from . import cabling, catalog, laurent, legendrian, seifert, surgery
from .laurent import *
from .seifert import *
from .cabling import *
from .legendrian import *
from .surgery import *
from .catalog import *

__all__ = sorted([
    *laurent.__all__, *seifert.__all__, *cabling.__all__,
    *legendrian.__all__, *surgery.__all__, *catalog.__all__,
])

__version__ = "0.1.0"
