"""The eleven command forms of the README, replayed through ``cli.main``
and compared byte for byte (stdout, stderr, exit code, in table and json
output) with the outputs recorded in ``data/readme_forms.json``.

An intended output change regenerates the file:

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


def record():
    """One entry per README form and output format, in README order."""
    return [
        {"argv": argv, **run(argv)}
        for form in readme_forms()
        for argv in (form, ["--output", "json", *form])
    ]


# a missing file fails the coverage test below
RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


def test_fixture_covers_the_readme_forms():
    forms = readme_forms()
    assert len(forms) == 11
    assert [entry["argv"] for entry in RECORDED] == [
        argv for form in forms for argv in (form, ["--output", "json", *form])
    ]


@pytest.mark.parametrize(
    "entry", RECORDED, ids=[" ".join(entry["argv"]) for entry in RECORDED]
)
def test_readme_form_output_is_unchanged(entry):
    got = run(entry["argv"])
    assert got == {key: entry[key] for key in ("code", "stdout", "stderr")}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
