"""``laurent.clear_caches`` empties every cache of results and no constant.
One call of each kind fills the package's caches; after clear_caches each
``lru_cache`` wrapper of the package with a finite maxsize is empty, and
the unbounded ones, pi at a precision, Phi_b and the lift table of a
genus for seifert's Alexander read-out, keep their entries.  The wrappers
are found through ``gc``, not through the modules' names, so a cache
that clear_caches cannot reach fails here."""

import functools
import gc

from concordance.cabling import cable_profile, fox_milnor_obstruction
from concordance.catalog import load_catalog
from concordance.laurent import clear_caches
from concordance.legendrian import cable_front
from concordance.seifert import RootOfUnity, levine_tristram

LRU = type(functools.lru_cache()(lambda: None))

# the caches that bench/layers.py empties before each timed call, as in
# BENCH_44.json: its figures stay comparable while this set holds
CLEARED = {
    "cabling._pairing_at", "laurent._primitive_factors", "intfactor._factors_at",
    "seifert._circle_arcs", "cyclotomic.cos2pi_bounds", "legendrian._cable_templates",
}


def package_caches():
    """Module.qualname -> wrapper, for every lru_cache of the package."""
    return {
        f"{wrapper.__module__.removeprefix('concordance.')}.{wrapper.__qualname__}": wrapper
        for wrapper in gc.get_objects()
        if type(wrapper) is LRU and wrapper.__module__.startswith("concordance.")
    }


def test_clear_caches_empties_the_bounded_caches_and_keeps_the_constants():
    catalog = load_catalog()
    trefoil = catalog.profile("RH-trefoil")
    fox_milnor_obstruction(trefoil, cable_profile(trefoil, 2), k_max=2)
    levine_tristram(trefoil.seifert, RootOfUnity(1, 3))
    cable_front(catalog.front("satellite-P-of-trefoil"), 2)
    caches = package_caches()
    assert all(wrapper.cache_info().currsize for wrapper in caches.values())

    clear_caches()
    bounded = {name for name, wrapper in caches.items() if wrapper.cache_parameters()["maxsize"] is not None}
    assert {name for name in bounded if caches[name].cache_info().currsize} == set()
    assert set(caches) - bounded == {
        "cyclotomic._pi_fixed", "cyclotomic.cyclotomic_coeffs", "seifert._lift_rows",
    }
    assert all(caches[name].cache_info().currsize for name in set(caches) - bounded)
    assert bounded == CLEARED
