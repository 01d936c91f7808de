"""The documentation's examples run: the doctests of every ``concordance``
module, and the README's "Library example" block, whose printed lines
must match the comments beside its ``print`` calls ("..." in a comment
matches any text, as under doctest's ELLIPSIS)."""

import contextlib
import doctest
import importlib
import io
import pathlib
import pkgutil

import concordance

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_module_doctests_pass():
    failed = attempted = 0
    for info in pkgutil.iter_modules(concordance.__path__):
        module = importlib.import_module(f"concordance.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 15  # 12 in laurent, 3 in seifert


def library_example():
    """The python block of the README's "Library example" section."""
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_comments():
    code = library_example()
    wanted = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert wanted == [
        "1*t^1 - 1 + 1*t^-1", "-2", "[(0.166..., -2)]", "obstructed smooth",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(wanted)
    checker = doctest.OutputChecker()
    for want, got in zip(wanted, printed):
        assert checker.check_output(want + "\n", got + "\n", doctest.ELLIPSIS), (want, got)
    assert printed[2].startswith("[(0.1666") and printed[2].endswith(", -2)]")
