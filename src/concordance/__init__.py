"""Exact knot concordance obstructions.

Modules cover Laurent polynomial norms (Fox-Milnor), Seifert form
signatures at roots of unity, cabling obstructions, Legendrian front
invariants with slice-genus bounds, surgery-presentation homology, and
a catalog-driven command line.  Each module's ``__all__`` lists its
public names; the package republishes them.

``import concordance`` runs laurent, realroots, cyclotomic, seifert,
cabling and catalog.  legendrian and surgery are in ``sys.modules`` and
on the package from the start, but run at the first read of one of
their attributes (``importlib.util.LazyLoader``): only a command that
reads a front or builds a presentation compiles them.
"""

import importlib.util
import sys


def _lazy(name):
    """The submodule `name`, registered but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# before catalog, which reads fronts through the legendrian module object
legendrian, surgery = _lazy("legendrian"), _lazy("surgery")

from . import cabling, catalog, laurent, seifert  # noqa: E402
from .laurent import *  # noqa: E402
from .seifert import *  # noqa: E402
from .cabling import *  # noqa: E402
from .catalog import *  # noqa: E402


# each public name of legendrian and surgery and its module: looking a
# name up here, unlike in a lazy module's __all__, runs neither module
_LAZY = dict.fromkeys([
    "FrontDiagram", "FrontError", "GenusBounds", "LegendrianInvariants", "MultiComponent", "NonClosed",
    "PatternData", "SatelliteGenusReport", "cable_front", "front_from_text", "genus_bounds",
    "satellite_front", "satellite_genus_pipeline", "satellite_invariants", "stabilize",
], legendrian) | dict.fromkeys([
    "AbelianGroupDescription", "ClassMismatch", "MeridianCheck", "SurgeryPresentation",
    "cobordism_meridian_check", "first_homology", "localize", "satellite_cobordism_presentation",
    "smith_normal_form",
], surgery)
__all__ = sorted([*laurent.__all__, *seifert.__all__, *cabling.__all__, *catalog.__all__, *_LAZY])


def __getattr__(name):
    """A public name of legendrian or surgery, run and kept at its first
    read.  Any other name raises at once: ``from concordance import cli``
    asks for it before importing the submodule."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_LAZY[name], name)
    return value


__version__ = "0.1.0"
