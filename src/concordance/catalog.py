"""Bundled knot catalog: cited literature values plus packaged diagram data.

The catalog is a JSON list of entries.  Each entry may carry a Seifert
matrix with declared (always cited) invariants, references to Legendrian
front files, an annular pattern declaration, and references to surgery
presentation files.  Computed quantities (Alexander polynomials,
signatures, front counts) are never stored, only recomputed; a declared
Alexander polynomial must be one, and is cross-checked against the
Seifert matrix when there is one.

The default catalog ships with the package; the CONCORDANCE_CATALOG
environment variable or an explicit path overrides it, with file
references resolved relative to the catalog's own directory.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .cabling import Cited, CitedBounds, KnotProfile
from .laurent import LaurentPoly, all_int, is_int
from .legendrian import FrontDiagram, PatternData, front_from_text
from .seifert import SeifertMatrix
from .surgery import SurgeryPresentation, presentation_from_text

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
    "presentations",
}


class CatalogError(ValueError):
    """Base class for catalog problems."""


class ParseError(CatalogError):
    """The catalog file or a referenced data file is malformed."""


class ValidationError(CatalogError):
    """A structurally valid entry violates a catalog invariant."""


class UnknownKnot(LookupError):
    """A requested name is not in the catalog (or lacks the needed data)."""


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog record: a knot profile and/or packaged diagram data."""

    name: str
    profile: KnotProfile | None = None
    fronts: dict = field(default_factory=dict)
    pattern: PatternData | None = None
    presentations: dict = field(default_factory=dict)


class Catalog:
    """Loaded catalog with name-based lookups across all entries."""

    def __init__(self, entries):
        self.entries = list(entries)
        self._by_name = _table("entry", ((e.name, e) for e in self.entries))
        self._fronts = _table(
            "front", (pair for e in self.entries for pair in e.fronts.items())
        )
        self._presentations = _table(
            "presentation",
            (pair for e in self.entries for pair in e.presentations.items()),
        )

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def entry(self, name) -> CatalogEntry:
        return _lookup(self._by_name, name, "catalog entry", sort=False)

    def profile(self, name) -> KnotProfile:
        entry = self.entry(name)
        if entry.profile is None:
            raise UnknownKnot(
                f"{name!r} is not a knot entry (no Seifert data or "
                "declared invariants)"
            )
        return entry.profile

    def front(self, name) -> FrontDiagram:
        return _lookup(self._fronts, name, "front")

    def pattern(self, name) -> PatternData:
        entry = self.entry(name)
        if entry.pattern is None:
            raise UnknownKnot(f"{name!r} declares no satellite pattern")
        return entry.pattern

    def presentation(self, name) -> SurgeryPresentation:
        return _lookup(self._presentations, name, "presentation")


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


def _load_file(base, filename, where, kind, suffix, parse):
    """Read and parse a file referenced by a catalog entry."""
    if not isinstance(filename, str) or not filename.endswith(suffix):
        raise ParseError(f"{where}: {kind} references end in {suffix}")
    try:
        text = (base / filename).read_text()
    except OSError as exc:
        raise ParseError(f"{where}: cannot read {filename!r}: {exc}") from None
    with _reraise(ParseError, f"{where}: {filename}"):
        return parse(text)


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
            isinstance(rows, list)
            and all(
                isinstance(row, list) and all_int(row)
                for row in rows
            ),
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

    for key in ("fronts", "presentations"):
        _require(isinstance(raw.get(key, []), list), f"{where}: {key} must be a list")
    fronts = {}
    for filename in raw.get("fronts", []):
        front = _load_file(base, filename, where, "front", ".front", front_from_text)
        fronts[filename[: -len(".front")]] = front

    pattern = None
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
        front = _load_file(
            base, obj["front"], f"{where}: pattern", "front", ".front", front_from_text
        )
        fronts.setdefault(obj["front"][: -len(".front")], front)
        with _reraise(ValidationError, f"{where}: pattern"):
            pattern = PatternData.from_front(
                name,
                front,
                tilde_class=obj.get("tilde_class"),
                tilde_citation=obj.get("citation"),
            )

    presentations = {}
    for filename in raw.get("presentations", []):
        presentations[filename[: -len(".pres")]] = _load_file(
            base, filename, where, "presentation", ".pres", presentation_from_text
        )

    if profile is None and not fronts and pattern is None and not presentations:
        raise ValidationError(f"{where}: entry declares nothing")
    return CatalogEntry(
        name=name,
        profile=profile,
        fronts=fronts,
        pattern=pattern,
        presentations=presentations,
    )


def load_catalog(path=None) -> Catalog:
    """Load and validate a catalog; default is the bundled one.

    Resolution order: explicit path, then the CONCORDANCE_CATALOG
    environment variable, then the packaged catalog.  File references
    inside the catalog resolve relative to the catalog's directory.
    Raises ParseError for malformed files and ValidationError for
    invariant violations.
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
