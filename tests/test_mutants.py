"""The mutation runner (`tests/mutants.py`) on its own table and on made-up
entries: a stale entry and a surviving mutant must each fail the run."""

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
    problems = dict(mutants.run([stale, survivor], tmp_path))
    assert problems["stale"].startswith("stale entry")
    assert problems["survivor"] == f"survived: {PASSING} passed"
    assert surgery.read_text() == before
