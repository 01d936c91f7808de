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


def __getattr__(name):
    """A public name of legendrian or surgery, or ``__all__``, looked up
    at first use and kept.  A submodule's name raises at once: ``from
    concordance import cli`` asks for it before importing the submodule."""
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        raise AttributeError(name)
    if name == "__all__":
        modules = (laurent, seifert, cabling, legendrian, surgery, catalog)
        value = sorted(public for module in modules for public in module.__all__)
    else:
        home = next((m for m in (legendrian, surgery) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
