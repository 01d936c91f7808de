"""The mutation runner (`tests/mutants.py`) on its own table and on made-up
entries: a stale entry and a surviving mutant must each fail the run."""

import time
from pathlib import Path

import mutants
from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[1]
PASSING = "tests/test_surgery.py::TestSmithNormalForm::test_zero_one_by_one"


def test_every_entry_applies_once_and_names_known_files():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.source) == 1, mutant.name
        assert mutant.source != mutant.replacement, mutant.name
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            assert (ROOT / test.split("::")[0]).is_file(), test


def test_a_stale_entry_and_a_surviving_mutant_fail_the_run(tmp_path):
    mutants.copy_tree(tmp_path)
    surgery = tmp_path / "src/concordance/surgery.py"
    before = surgery.read_text()
    stale = Mutant("stale", "src/concordance/surgery.py", "no such source text", "", (PASSING,))
    # a comment changed: every test still passes
    survivor = Mutant(
        "survivor", "src/concordance/surgery.py", "# a remainder smaller than the pivot surfaced", "# changed", (PASSING,)
    )
    caught, problems = mutants.run([stale, survivor], tmp_path)
    assert caught == 0
    problems = dict(problems)
    assert problems["stale"].startswith("stale entry")
    assert problems["survivor"] == f"survived: {PASSING} passed"
    assert surgery.read_text() == before


def test_a_mutant_that_breaks_its_test_module_import_is_caught(tmp_path, capsys):
    mutants.copy_tree(tmp_path)
    # tests/test_surgery.py imports smith_normal_form: its collection errors
    renamed = Mutant(
        "renamed", "src/concordance/surgery.py", "def smith_normal_form(", "def smith_normal_form_(", (PASSING,)
    )
    assert mutants.run([renamed], tmp_path) == (1, [])
    assert "caught: renamed" in capsys.readouterr().out


# at import of the library: 1 GiB at a time, each calloc'd and never
# touched, so the host's memory stays free however far it gets uncapped
HOG = "import time\n_HOG = []\nwhile True:\n    _HOG.append(bytes(1 << 30))\n    time.sleep(0.01)\n"


def test_a_mutant_that_allocates_without_bound_is_caught_within_its_timeout(tmp_path):
    mutants.copy_tree(tmp_path)
    hog = Mutant("hog", "src/concordance/surgery.py", "def smith_normal_form(", HOG + "def smith_normal_form(", (PASSING,),
                 timeout=60.0)
    start = time.monotonic()
    assert mutants.run([hog], tmp_path) == (1, [])
    assert time.monotonic() - start < hog.timeout


PROBE = """from pathlib import Path

import pytest

RENAMED = "def smith_normal_form_(" in (Path(__file__).parents[1] / "src/concordance/surgery.py").read_text()


def test_fails_on_the_mutant():
    assert not RENAMED


def test_skips_on_the_mutant():
    if RENAMED:
        pytest.skip("mutated")
"""


def _two_file_entry(tmp_path, probe):
    """An entry whose mutant breaks the import of tests/test_surgery.py
    and names a second test, in a file that imports nothing it renames."""
    mutants.copy_tree(tmp_path)
    (tmp_path / "tests/test_probe.py").write_text(PROBE)
    return Mutant(
        "two files", "src/concordance/surgery.py", "def smith_normal_form(", "def smith_normal_form_(",
        (PASSING, f"tests/test_probe.py::{probe}"),
    )


def test_a_file_that_fails_to_import_does_not_stop_the_entry_s_other_files(tmp_path):
    assert mutants.run([_two_file_entry(tmp_path, "test_fails_on_the_mutant")], tmp_path) == (1, [])


def test_a_named_test_that_does_not_run_is_reported_as_not_run(tmp_path):
    entry = _two_file_entry(tmp_path, "test_skips_on_the_mutant")
    assert mutants.run([entry], tmp_path) == (0, [("two files", "not run: tests/test_probe.py::test_skips_on_the_mutant")])


def test_an_id_that_pytest_does_not_collect_runs_no_mutant(tmp_path, capsys):
    mutants.copy_tree(tmp_path)
    # a parametrized test named without its parameter
    bare = "tests/test_surgery.py::TestSmithNormalForm::test_hyperbolic_pair"
    entry = Mutant("bare id", "src/concordance/surgery.py", "def smith_normal_form(", "def smith_normal_form_(", (bare,))
    assert mutants.run([entry], tmp_path) == (0, [("bare id", f"pytest collects no test {bare}")])
    assert f"FAIL: bare id: pytest collects no test {bare}" in capsys.readouterr().out


def test_a_failing_unmutated_tree_runs_no_mutant_and_names_the_failures(tmp_path, monkeypatch, capsys):
    mutants.copy_tree(tmp_path)
    test_file = tmp_path / "tests/test_surgery.py"
    test_file.write_text(test_file.read_text().replace("== ([[1]], [[0]], [[1]])", "== ([[1]], [[1]], [[1]])"))
    monkeypatch.setattr(mutants, "copy_tree", lambda root: None)
    monkeypatch.setattr(mutants.tempfile, "TemporaryDirectory", lambda: _Fixed(tmp_path))
    survivor = Mutant("comment", "src/concordance/surgery.py", "def smith_normal_form(", "def  smith_normal_form(", (PASSING,))
    monkeypatch.setattr(mutants, "MUTANTS", (survivor,))
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert f"FAIL: unmutated tree: pytest exit code 1; failing: {PASSING}" in out
    assert out.endswith("0 of 1 mutants caught\n")
    assert "caught: comment" not in out


class _Fixed:
    """A TemporaryDirectory stand-in that yields a given directory."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return str(self.path)

    def __exit__(self, *exc):
        return False
