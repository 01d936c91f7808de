"""No library module imports a private (underscore) name from a sibling
module: what one module needs of another goes through its public names."""

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
