"""Bundled knot catalog: cited literature values plus packaged diagram data.

The catalog is a JSON list of entries.  Each entry may carry a Seifert
matrix with declared (always cited) invariants, references to Legendrian
front files, and an annular pattern declaration.  Computed quantities
(Alexander polynomials, signatures, front counts) are never stored, only
recomputed; a declared Alexander polynomial must be one, and is
cross-checked against the Seifert matrix when there is one.

The default catalog ships with the package; the CONCORDANCE_CATALOG
environment variable or an explicit path overrides it, with file
references resolved relative to the catalog's own directory.  Surgery
presentations are not catalog data: `surgery.satellite_cobordism_presentation`
builds the satellite cobordism's, and `surgery.SurgeryPresentation` takes
any other from Python.

Loading checks each entry's fields and profile and the names of its
front files, but reads no front file: the first read of an entry (by
`Catalog.entry`, `front` or `pattern`) parses and checks its fronts and
pattern, and keeps them.  So only a command that reads one runs `legendrian`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from . import legendrian
from .cabling import Cited, CitedBounds, KnotProfile
from .laurent import LaurentPoly, Record, all_int_rows, is_int
from .seifert import SeifertMatrix

__all__ = [
    "CATALOG_ENV_VAR", "Catalog", "CatalogEntry", "ParseError", "UnknownKnot",
    "ValidationError", "load_catalog",
]

CATALOG_ENV_VAR = "CONCORDANCE_CATALOG"

_ENTRY_FIELDS = {
    "name",
    "seifert_matrix",
    "alexander",
    "genus",
    "tau",
    "s",
    "slice_genus",
    "topologically_slice",
    "fronts",
    "pattern",
}


class CatalogError(ValueError):
    """Base class for catalog problems."""


class ParseError(CatalogError):
    """The catalog file or a referenced data file is malformed."""


class ValidationError(CatalogError):
    """A structurally valid entry violates a catalog invariant."""


class UnknownKnot(LookupError):
    """A requested name is not in the catalog (or lacks the needed data)."""


class CatalogEntry(Record):
    """One catalog record: a knot profile and/or packaged diagram data.
    Every field is given: the loader builds each entry whole."""

    name: str
    profile: KnotProfile | None
    fronts: dict
    pattern: legendrian.PatternData | None


class Catalog:
    """Loaded catalog with name-based lookups across all entries."""

    def __init__(self, entries):
        # (name, profile, front names, read) per entry; read() returns
        # the CatalogEntry, its fronts parsed and its pattern built
        self._by_name = _table(
            "entry", ((name, (profile, read)) for name, profile, _, read in entries)
        )
        self._fronts = _table(
            "front", ((front, name) for name, _, fronts, _ in entries for front in fronts)
        )
        self._read = {}

    @property
    def entries(self) -> list[CatalogEntry]:
        return [self.entry(name) for name in self._by_name]

    def __iter__(self):
        return iter(self.entries)

    def entry(self, name) -> CatalogEntry:
        if name not in self._read:
            self._read[name] = _lookup(self._by_name, name, "catalog entry", sort=False)[1]()
        return self._read[name]

    def profile(self, name) -> KnotProfile:
        profile = _lookup(self._by_name, name, "catalog entry", sort=False)[0]
        if profile is None:
            raise UnknownKnot(
                f"{name!r} is not a knot entry (no Seifert data or "
                "declared invariants)"
            )
        return profile

    def front(self, name) -> legendrian.FrontDiagram:
        return self.entry(_lookup(self._fronts, name, "front")).fronts[name]

    def pattern(self, name) -> legendrian.PatternData:
        entry = self.entry(name)
        if entry.pattern is None:
            raise UnknownKnot(f"{name!r} declares no satellite pattern")
        return entry.pattern


def _table(kind, pairs):
    """A name -> value table; a name may occur once across the catalog."""
    table = {}
    for name, value in pairs:
        if name in table:
            raise ValidationError(f"duplicate {kind} name {name!r}")
        table[name] = value
    return table


def _lookup(table, name, kind, sort=True):
    """table[name]; an unknown name lists the table's names, sorted or in
    catalog order."""
    try:
        return table[name]
    except KeyError:
        available = ", ".join(sorted(table) if sort else table)
        raise UnknownKnot(
            f"no {kind} named {name!r} (available: {available})"
        ) from None


def _require(condition, message):
    if not condition:
        raise ParseError(message)


@contextmanager
def _reraise(error, where):
    """Turn a library ValueError raised in the block into `error`, with
    the text "{where}: {exc}"."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def _cited(raw, where, kind, kind_name):
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require(set(raw) <= {"value", "citation"}, f"{where}: unknown field")
    _require("value" in raw, f"{where}: missing value")
    value = raw["value"]
    _require(
        is_int(value) if kind is int else isinstance(value, kind),
        f"{where}: value must be {kind_name}",
    )
    with _reraise(ValidationError, where):
        return Cited(value, raw.get("citation"))


def _cited_bounds(raw, where):
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require(
        set(raw) <= {"lower", "upper", "citation"}, f"{where}: unknown field"
    )
    for side in ("lower", "upper"):
        if side in raw:
            _require(is_int(raw[side]), f"{where}: {side} must be an integer")
    with _reraise(ValidationError, where):
        return CitedBounds(raw.get("lower"), raw.get("upper"), raw.get("citation"))


def _front_name(filename, where):
    """The name of a front file referenced by a catalog entry."""
    if not isinstance(filename, str) or not filename.endswith(".front"):
        raise ParseError(f"{where}: front references end in .front")
    return filename[: -len(".front")]


def _load_front(base, filename, where):
    """Read and parse a front file referenced by a catalog entry."""
    try:
        text = (base / filename).read_text()
    except OSError as exc:
        raise ParseError(f"{where}: cannot read {filename!r}: {exc}") from None
    with _reraise(ParseError, f"{where}: {filename}"):
        return legendrian.front_from_text(text)


def _parse_entry(raw, index, base):
    where = f"entry {index}"
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require("name" in raw, f"{where}: missing name")
    name = raw["name"]
    _require(
        isinstance(name, str) and name.strip(), f"{where}: name must be a string"
    )
    where = f"entry {name!r}"
    unknown = set(raw) - _ENTRY_FIELDS
    if unknown:
        raise ParseError(f"{where}: unknown field {sorted(unknown)[0]!r}")

    seifert = None
    if "seifert_matrix" in raw:
        rows = raw["seifert_matrix"]
        _require(
            isinstance(rows, list) and all(isinstance(row, list) for row in rows) and all_int_rows(rows),
            f"{where}: seifert_matrix must be a list of integer rows",
        )
        with _reraise(ValidationError, where):
            seifert = SeifertMatrix(rows, name=name)

    alexander = None
    if "alexander" in raw:
        _require(
            isinstance(raw["alexander"], str),
            f"{where}: alexander must be a polynomial string",
        )
        with _reraise(ParseError, f"{where}: alexander"):
            alexander = LaurentPoly.parse(raw["alexander"])

    declared = {}
    for json_field, profile_field, kind, kind_name in (
        ("genus", "declared_genus", int, "an integer"),
        ("tau", "declared_tau", int, "an integer"),
        ("s", "declared_s", int, "an integer"),
        ("topologically_slice", "topologically_slice", bool, "a boolean"),
    ):
        if json_field in raw:
            declared[profile_field] = _cited(
                raw[json_field], f"{where}: {json_field}", kind, kind_name
            )
    if "slice_genus" in raw:
        declared["declared_slice_genus"] = _cited_bounds(
            raw["slice_genus"], f"{where}: slice_genus"
        )

    profile = None
    if seifert is not None or alexander is not None or declared:
        with _reraise(ValidationError, where):
            profile = KnotProfile(
                name=name, seifert=seifert, alexander=alexander, **declared
            )

    _require(isinstance(raw.get("fronts", []), list), f"{where}: fronts must be a list")
    files = {_front_name(f, where): (f, where) for f in raw.get("fronts", [])}

    pattern_front = None
    if "pattern" in raw:
        obj = raw["pattern"]
        _require(isinstance(obj, dict), f"{where}: pattern must be an object")
        _require(
            set(obj) <= {"front", "tilde_class", "citation"},
            f"{where}: pattern: unknown field",
        )
        _require("front" in obj, f"{where}: pattern: missing front")
        _require(
            isinstance(obj.get("citation", ""), str),
            f"{where}: pattern: citation must be a string",
        )
        pattern_front = _front_name(obj["front"], f"{where}: pattern")
        files.setdefault(pattern_front, (obj["front"], f"{where}: pattern"))
    if profile is None and not files:  # a pattern's front is in files
        raise ValidationError(f"{where}: entry declares nothing")

    def read():
        fronts = {front: _load_front(base, *file) for front, file in files.items()}
        pattern = None
        if pattern_front is not None:
            with _reraise(ValidationError, f"{where}: pattern"):
                pattern = legendrian.PatternData.from_front(
                    name, fronts[pattern_front],
                    tilde_class=obj.get("tilde_class"), tilde_citation=obj.get("citation"),
                )
        return CatalogEntry(name=name, profile=profile, fronts=fronts, pattern=pattern)

    return name, profile, files, read


def load_catalog(path=None) -> Catalog:
    """Load and validate a catalog; default is the bundled one.

    Resolution order: explicit path, then the CONCORDANCE_CATALOG
    environment variable, then the packaged catalog.  File references
    inside the catalog resolve relative to the catalog's directory.
    Raises ParseError for malformed files and ValidationError for
    invariant violations; an entry's front files and pattern raise them
    at the entry's first read.
    """
    if path is None:
        path = os.environ.get(CATALOG_ENV_VAR)
    if path is None:
        base = resources.files("concordance") / "_data"
        file = base / "catalog.json"
    else:
        file = Path(path)
        base = file.parent
    try:
        text = file.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read catalog {str(file)!r}: {exc}") from None
    if not text.strip():
        return Catalog([])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    _require(isinstance(data, list), "top level must be a list of entries")
    entries = [_parse_entry(raw, index, base) for index, raw in enumerate(data)]
    return Catalog(entries)
