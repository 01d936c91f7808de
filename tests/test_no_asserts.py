"""No check in the library may be an assert statement, which python -O
strips: every guard raises an explicit exception.  The same holds for
the shared oracles in ``_oracles.py``: it is not a test module, so
pytest does not rewrite its asserts and -O would strip them too."""

import ast
from pathlib import Path

import concordance

SOURCES = sorted(Path(concordance.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).with_name("_oracles.py")


def test_library_has_no_assert_statements():
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + [ORACLES]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
