"""What a fresh interpreter loads: the diagram half of the package,
legendrian and surgery, runs only for a command that reads a front or
builds a presentation, and neither the library nor a command loads
importlib.resources, pathlib or typing.  Exact rationals are pairs of
ints outside legendrian, whose tau bound is a Fraction, so fractions,
with the decimal and numbers it imports, loads only where legendrian
runs.

Each check runs in a fresh interpreter under ``python -S``, so that no
``.pth`` file of the host's site-packages can load a module first.  It
reads ``type(sys.modules[name])``: a module that has not run is still
the lazy loader's module type, and reading any of its attributes would
run it."""

import json
import os
import subprocess
import sys

import pytest
from test_readme_forms import readme_forms

import concordance
from concordance import legendrian, surgery

SRC = os.path.dirname(os.path.dirname(concordance.__file__))

# runs `source`, which may set `value`, with its output swallowed
PROBE = """\
import contextlib, io, json, sys, types
scope = {}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exec(sys.argv[1], scope)
ran = [name for name in ("legendrian", "surgery")
       if type(sys.modules["concordance." + name]) is types.ModuleType]
loaded = [name for name in json.loads(sys.argv[2]) if name in sys.modules]
print(json.dumps([scope.get("value"), ran, loaded]))
"""

# the standard-library packages no command loads: importlib.resources,
# pathlib and typing, and what they pull in
UNLOADED = ["importlib.resources", "pathlib", "typing", "tempfile", "zipfile", "urllib.parse"]
# argparse's help formatter imports shutil and intfactor imports random,
# so only the library leaves these two unloaded
LIBRARY_UNLOADED = UNLOADED + ["shutil", "random"]
# loaded by legendrian alone
FRACTIONS = ["fractions", "decimal", "numbers"]

# the lazy modules each command runs; the others run neither
RUNS = {"legendrian": ["legendrian"], "theorem31": ["legendrian"], "homology-check": ["surgery"]}


def run(source, unloaded=UNLOADED):
    """[value, the lazy modules that ran, the modules of `unloaded` that
    were loaded] after `source` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, source, json.dumps(unloaded)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def run_cli(argv, unloaded=UNLOADED):
    return run(f"from concordance import cli\nvalue = cli.main({argv!r})", unloaded)


@pytest.mark.parametrize("argv", readme_forms(), ids="_".join)
def test_a_readme_form_runs_only_the_diagram_modules_it_reads(argv):
    runs = RUNS.get(argv[0], [])
    unloaded = UNLOADED if "legendrian" in runs else UNLOADED + FRACTIONS
    assert run_cli(argv, unloaded) == [0, runs, []]


def test_the_library_and_its_catalog_load_no_resources_pathlib_or_typing():
    source = "import concordance\nconcordance.load_catalog()"
    assert run(source, LIBRARY_UNLOADED + FRACTIONS) == [None, [], []]


def test_an_input_error_runs_neither():
    # omega = e^(2 pi i / 6) is a root of the trefoil's delta: the error
    # and its exit code come from the numeric half alone
    assert run_cli(["signature", "RH-trefoil", "--omega", "1/6"])[:2] == [2, []]


def test_importing_cli_runs_neither():
    assert run("from concordance import cli", UNLOADED + FRACTIONS) == [None, [], []]


def test_clearing_the_caches_runs_neither():
    # clear_caches walks the globals of every loaded module, catalog's
    # reference to the lazy legendrian module among them
    assert run("import concordance\nconcordance.laurent.clear_caches()")[:2] == [None, []]


@pytest.mark.parametrize(
    "name, module",
    [(name, "legendrian") for name in legendrian.__all__] + [(name, "surgery") for name in surgery.__all__],
)
def test_a_lazy_name_read_through_the_package_runs_only_its_module(name, module):
    assert run(f"import concordance\nconcordance.{name}")[:2] == [None, [module]]


@pytest.mark.parametrize("source", ["hasattr(concordance, 'no_such_name')", "sorted(concordance.__all__)"])
def test_a_missing_name_or_the_name_list_runs_neither(source):
    assert run(f"import concordance\nvalue = {source}")[1] == []


def test_the_lazy_table_maps_each_lazy_modules_public_names_to_it():
    table = {**dict.fromkeys(legendrian.__all__, legendrian), **dict.fromkeys(surgery.__all__, surgery)}
    assert concordance._LAZY == table
