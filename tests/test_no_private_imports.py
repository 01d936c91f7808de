"""No library module imports a private (underscore) name from a sibling
module, or reads one through a sibling module it imports whole (``from .
import legendrian``, then ``legendrian._name``): what one module needs of
another goes through its public names.  No library module imports sympy
or mpmath: they are test oracles only."""

import ast
from pathlib import Path

import concordance

SOURCES = sorted(Path(concordance.__file__).parent.glob("*.py"))


def _sibling_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "concordance"
        ):
            yield node


def test_no_module_imports_private_names_of_a_sibling():
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in SOURCES
        for node in _sibling_imports(ast.parse(path.read_text(), filename=str(path)))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_no_module_reads_private_names_through_a_sibling_module():
    stems = {path.stem for path in SOURCES}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        siblings = {
            alias.asname or alias.name
            for node in _sibling_imports(tree)
            if node.module in (None, "concordance")
            for alias in node.names
            if alias.name in stems
        }
        found += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ]
    assert found == []


def test_no_module_imports_sympy_or_mpmath():
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name.split(".")[0] in ("sympy", "mpmath")
    ]
    assert found == []
