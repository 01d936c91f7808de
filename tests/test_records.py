"""The record rule: `laurent.Record` is the one base of the package's 16
frozen result classes, and importing the package loads neither
`dataclasses` nor `inspect`.

Each class is checked against the contract the dataclass decorator gave
it before: its fields in their old order, construction by position and by
keyword, the errors of a bad call, defaults, one run of `__post_init__`,
equality and hashing by class and field tuple, the dataclass repr, and
frozenness."""

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import concordance
from concordance.cabling import Cited, CitedBounds, KnotProfile, ObstructionReport, Witness
from concordance.catalog import CatalogEntry
from concordance.laurent import Factorization, FoxMilnorResult, LaurentPoly, Record
from concordance.legendrian import GenusBounds, LegendrianInvariants, PatternData, SatelliteGenusReport
from concordance.realroots import RootMarker
from concordance.seifert import RootOfUnity
from concordance.surgery import AbelianGroupDescription, MeridianCheck

SRC = pathlib.Path(concordance.__file__).parent

_INV = LegendrianInvariants(1, 0)
_GROUP = AbelianGroupDescription(1, (2,), {"x": (1, 0)})

# class -> (its fields in order, a valid value for each, another value of
# the last field, the defaults of the fields that have one)
RECORDS = {
    Cited: (("value", "citation"), (2, "cite"), "other", {}),
    CitedBounds: (("lower", "upper", "citation"), (1, 2, "cite"), "other", {}),
    KnotProfile: (
        ("name", "seifert", "alexander", "declared_tau", "declared_s", "declared_genus",
         "declared_slice_genus", "topologically_slice", "cable_of"),
        ("K", None, None, None, None, None, None, None, None),
        (KnotProfile("B"), 2),
        dict.fromkeys(("seifert", "alexander", "declared_tau", "declared_s", "declared_genus",
                       "declared_slice_genus", "topologically_slice", "cable_of")),
    ),
    Witness: (("kind", "data"), ("kind", {"a": 1}), {"a": 2}, {}),
    ObstructionReport: (
        ("verdict", "category", "witnesses", "parameters", "notes"),
        ("no-obstruction-found", None, (), {}, ()),
        ("a note",),
        {"notes": ()},
    ),
    Factorization: (
        ("sign", "power", "content", "factors"), (1, 0, 1, ()), ((LaurentPoly.parse("t^2 - t + 1"), 1),), {},
    ),
    FoxMilnorResult: (
        ("is_norm", "witness", "violating_factor", "violating_multiplicity", "violating_content", "reason"),
        (True, LaurentPoly.parse("1"), None, None, None, None),
        "a reason",
        {"reason": None},
    ),
    LegendrianInvariants: (
        ("tb", "rot", "writhe", "cusps", "down_left_cusps", "up_right_cusps"),
        (1, 0, 3, 2, 1, 1),
        0,
        dict.fromkeys(("writhe", "cusps", "down_left_cusps", "up_right_cusps")),
    ),
    PatternData: (
        ("name", "winding", "tb", "rot", "tilde_class", "tilde_citation"),
        ("P", 1, 2, 1, "unknot", "cite"),
        "other",
        dict.fromkeys(("tilde_class", "tilde_citation")),
    ),
    GenusBounds: (("g4_lower", "tau_lower", "s_lower"), (1, Fraction(1), 2), 3, {}),
    SatelliteGenusReport: (
        ("companion", "genus", "front", "realization", "stabilized", "satellite", "bounds", "conclusions"),
        ("K", 1, "f", _INV, _INV, _INV, GenusBounds(1, Fraction(1), 2), ("c",)),
        ("d",),
        {},
    ),
    RootMarker: (("poly", "lo_num", "hi_num", "den", "sign_lo"), ([1, 0, -2], 2, 4, 2, -1), 1, {}),
    RootOfUnity: (("numerator", "denominator"), (1, 3), 4, {}),
    AbelianGroupDescription: (("rank", "torsion", "images"), (1, (2,), {"x": (1, 0)}), {"x": (0, 1)}, {}),
    MeridianCheck: (
        ("class0", "class1", "p", "homology", "localized", "notes"),
        ("a", "b", 2, _GROUP, _GROUP, ("n",)),
        ("m",),
        {},
    ),
    CatalogEntry: (("name", "profile", "fronts", "pattern"), ("K", None, {}, None), PatternData("P", 1, 2, 0, None, None), {}),
}
WITH_POST_INIT = {Cited, CitedBounds, KnotProfile, ObstructionReport, PatternData, RootOfUnity, AbelianGroupDescription}

CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_the_sixteen_classes_are_records():
    assert len(RECORDS) == 16
    assert all(issubclass(cls, Record) for cls in RECORDS)


@CLASSES
def test_fields_in_order_by_position_and_keyword(cls):
    names, values, _, _ = RECORDS[cls]
    record = cls(*values)
    assert list(vars(record)) == list(names)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record


@CLASSES
def test_a_bad_call_raises_type_error(cls):
    names, values, _, defaults = RECORDS[cls]
    required = [name for name in names if name not in defaults]
    missing = {name: value for name, value in zip(names, values) if name != required[-1]}
    for args, kwargs in (
        ((), missing),  # a required field left out
        (values, {"no_such_field": 1}),
        (values, {names[0]: values[0]}),  # a field given twice
        ((*values, None), {}),  # one positional too many
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@CLASSES
def test_an_omitted_default_equals_the_explicit_one(cls):
    names, values, _, defaults = RECORDS[cls]
    required = {name: value for name, value in zip(names, values) if name not in defaults}
    omitted = cls(**required)
    assert omitted == cls(**required, **defaults)
    assert {name: getattr(omitted, name) for name in defaults} == defaults


@CLASSES
def test_post_init_runs_once(cls, monkeypatch):
    names, values, _, _ = RECORDS[cls]
    assert hasattr(cls, "__post_init__") == (cls in WITH_POST_INIT)
    if cls not in WITH_POST_INIT:
        return
    runs = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: runs.append(original(self)))
    cls(*values)
    cls(**dict(zip(names, values)))
    assert len(runs) == 2


def test_post_init_checks_and_normalizes():
    with pytest.raises(ValueError, match="citation"):
        Cited(1, " ")
    assert RootOfUnity(2, 6) == RootOfUnity(1, 3)
    assert vars(RootOfUnity(-1, 6)) == {"numerator": 5, "denominator": 6}


@CLASSES
def test_equality_and_hash_by_class_and_field_tuple(cls):
    names, values, last, _ = RECORDS[cls]
    record = cls(*values)
    assert record == cls(*values)
    assert record != cls(*values[:-1], last)
    stored = tuple(getattr(record, name) for name in names)
    # a record class of its own with the same fields and values
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(names, "object")})(*stored)
    assert record.__eq__(twin) is NotImplemented
    assert record != twin
    assert record.__eq__(stored) is NotImplemented
    if _hashable(stored):
        assert hash(record) == hash(cls(*values)) == hash(stored)
    else:
        with pytest.raises(TypeError):
            hash(record)


@CLASSES
def test_repr_is_the_dataclass_form(cls):
    names, values, _, _ = RECORDS[cls]
    record = cls(*values)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_repr_of_a_small_record():
    assert repr(RootOfUnity(2, 6)) == "RootOfUnity(numerator=1, denominator=3)"
    assert repr(GenusBounds(1, Fraction(1, 2), 2)) == "GenusBounds(g4_lower=1, tau_lower=Fraction(1, 2), s_lower=2)"


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, values, last, _ = RECORDS[cls]
    record = cls(*values)
    before = dict(vars(record))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, last)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert vars(record) == before


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # the machinery costs about a quarter of a cold import
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import concordance, concordance.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.stdout.strip() == "[]"
    for path in SRC.glob("*.py"):
        imports = {
            alias.name if isinstance(node, ast.Import) else node.module
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "dataclasses" not in imports, path.name
