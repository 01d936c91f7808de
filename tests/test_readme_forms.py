"""The eleven command forms of the README, replayed through ``cli.main``
and compared byte for byte (stdout, stderr, exit code, in table and json
output) with the outputs recorded in ``data/readme_forms.json``; likewise
``SHAPES``, the report shapes no README form prints, with
``data/report_shapes.json``.

An intended output change regenerates both files:

    PYTHONPATH=src python tests/test_readme_forms.py
"""

import contextlib
import io
import json
import pathlib
import shlex

import pytest

from concordance.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "readme_forms.json"
SHAPES_FIXTURE = FIXTURE.with_name("report_shapes.json")
# a signature-mismatch witness holding a RootOfUnity, a fox-milnor-norm
# witness holding a LaurentPoly, and no category and no witnesses
SHAPES = [
    ["verdict", "RH-trefoil", "figure-eight"],
    ["fox-milnor", "RH-trefoil", "RH-trefoil"],
    ["verdict", "figure-eight", "figure-eight"],
]


def readme_forms():
    """The argument lists of the command block in the README's
    "Command line" section, one per line that starts with `concordance`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("concordance ")
    ]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def both_outputs(forms):
    """Each form in table output, then in json output."""
    return [argv for form in forms for argv in (form, ["--output", "json", *form])]


def record(forms):
    """One entry per form and output format, in the order given."""
    return [{"argv": argv, **run(argv)} for argv in both_outputs(forms)]


def recorded(path):
    # a missing file fails a coverage test below
    return json.loads(path.read_text()) if path.exists() else []


RECORDED = recorded(FIXTURE)
SHAPES_RECORDED = recorded(SHAPES_FIXTURE)


def test_fixture_covers_the_readme_forms():
    forms = readme_forms()
    assert len(forms) == 11
    assert [entry["argv"] for entry in RECORDED] == both_outputs(forms)


def test_fixture_covers_the_report_shapes():
    assert [entry["argv"] for entry in SHAPES_RECORDED] == both_outputs(SHAPES)


@pytest.mark.parametrize(
    "entry",
    RECORDED + SHAPES_RECORDED,
    ids=[" ".join(entry["argv"]) for entry in RECORDED + SHAPES_RECORDED],
)
def test_readme_form_output_is_unchanged(entry):
    got = run(entry["argv"])
    assert got == {key: entry[key] for key in ("code", "stdout", "stderr")}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(readme_forms()), indent=1) + "\n")
    SHAPES_FIXTURE.write_text(json.dumps(record(SHAPES), indent=1) + "\n")
