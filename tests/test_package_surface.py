"""The package republishes each module's public names, and only those."""

import concordance
from concordance import cabling, catalog, laurent, legendrian, seifert, surgery

MODULES = (laurent, seifert, cabling, legendrian, surgery, catalog)


def test_package_names_are_the_sorted_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)  # each name has one home
    assert concordance.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(concordance, name) is getattr(module, name)
    # cabling imports first_witness by name; the package does not export it
    assert not hasattr(concordance, "first_witness")
