"""The benchmark's tracer (perfbench/tracer.py) names library functions
by module and attribute.  These tests install it on the package, so a
renamed or moved target fails here, not only in a traced benchmark run."""

import sys

import concordance
from _oracles import load_perfbench

from concordance.surgery import satellite_cobordism_presentation

tracer = load_perfbench("tracer")


def _bindings():
    """Every global of the package's modules and every attribute of the
    classes they define, by owner."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "concordance"]
    classes = {
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__.split(".")[0] == "concordance"
    }
    owners = modules + list(classes)
    return {(id(owner), key): (owner, value) for owner in owners for key, value in vars(owner).items()}


def test_every_target_resolves():
    for module, attr, _ in tracer.TARGETS:
        home = sys.modules[f"concordance.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{module}.{attr}"


def test_install_records_spans_and_uninstall_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    t.install(concordance)
    try:
        check = concordance.surgery.cobordism_meridian_check(
            satellite_cobordism_presentation(2), "mu_K", "mu_Ptilde", 2
        )
    finally:
        t.uninstall()
    assert check.homology.describe() == "Z"
    spans = {t.names[name_id]: parent for name_id, _, _, parent in t.spans}
    assert set(spans) == {"surgery.cobordism_meridian_check", "surgery.first_homology"}
    # the homology span is a child of the meridian check's span, which is the root
    assert spans["surgery.cobordism_meridian_check"] == -1
    assert spans["surgery.first_homology"] == 0
    assert t.stats["surgery.first_homology"]["calls"] == 1
    # first_homology runs the elimination itself, not through smith_normal_form
    assert t.stats["surgery.smith_normal_form"]["calls"] == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, (_, value) in before.items() if after[key][1] is not value] == []
