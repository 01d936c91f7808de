"""The diagram half of the package, legendrian and surgery, runs only for
a command that reads a front or builds a presentation.

Each check runs in a fresh interpreter and reads
``type(sys.modules[name])``: a module that has not run is still the lazy
loader's module type, and reading any of its attributes would run it."""

import json
import os
import subprocess
import sys

import pytest
from test_readme_forms import readme_forms

import concordance

SRC = os.path.dirname(os.path.dirname(concordance.__file__))

PROBE = """\
import contextlib, io, json, sys, types
from concordance import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = None if argv is None else cli.main(argv)
ran = [name for name in ("legendrian", "surgery")
       if type(sys.modules["concordance." + name]) is types.ModuleType]
print(json.dumps([code, ran]))
"""

# the lazy modules each command runs; the others run neither
RUNS = {"legendrian": ["legendrian"], "theorem31": ["legendrian"], "homology-check": ["surgery"]}


def run(argv):
    """[exit code, the lazy modules that ran] of `argv` in a fresh
    interpreter that imports cli; argv None imports cli alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv", readme_forms(), ids="_".join)
def test_a_readme_form_runs_only_the_diagram_modules_it_reads(argv):
    assert run(argv) == [0, RUNS.get(argv[0], [])]


def test_an_input_error_runs_neither():
    # omega = e^(2 pi i / 6) is a root of the trefoil's delta: the error
    # and its exit code come from the numeric half alone
    assert run(["signature", "RH-trefoil", "--omega", "1/6"]) == [2, []]


def test_importing_cli_runs_neither():
    assert run(None) == [None, []]
