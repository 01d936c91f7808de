"""Recorded mutations of the library, rerun: each must fail its tests.

    python tests/mutants.py

Each entry of `MUTANTS` names a file, an exact piece of its source, the
replacement, the tests that must fail, and a timeout in seconds.  The
runner copies `src/` and `tests/` (and `perfbench/`, whose input
families the test oracles load) to a temporary directory.  It first runs
every named test there once, unmutated: each must exist and pass.  Then,
for each entry, it applies the mutation to the copy, runs only the
entry's tests in a fresh interpreter, and puts the file back.

The run fails, exit code 1, when
- an entry's source text is not in its file exactly once: the code it
  mutates has changed, so the same change must update the table;
- a mutant survives: one of its tests passes;
- a mutant runs past its timeout, unless its entry says it hangs.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    source: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the root; each must fail
    timeout: float = 120.0
    hangs: bool = False  # running past the timeout counts as caught


SURGERY = "src/concordance/surgery.py"
SEIFERT = "src/concordance/seifert.py"
REFERENCE = "tests/test_surgery.py::test_transforms_match_the_reference_elimination"
DIGESTS = "tests/test_surgery.py::test_transforms_match_the_recorded_digests"
INT_DET = "tests/test_seifert.py::test_int_det_matches_sympy"
LEGENDRIAN = "src/concordance/legendrian.py"
BLOCKWISE = "tests/test_legendrian.py::test_cables_and_satellites_match_the_blockwise_route"
FRONT_DIGESTS = "tests/test_legendrian.py::test_fronts_match_the_recorded_digests"
KEPT_FORMS = "tests/test_buffer_rule.py::test_readers_leave_the_kept_forms_unchanged_and_answer_twice_alike"

MUTANTS = (
    Mutant(
        "row minimum kept after a row operation",
        SURGERY,
        "                    low[i] = None\n",
        "",
        (REFERENCE, DIGESTS),
    ),
    Mutant(
        "row minimum not swapped with its row",
        SURGERY,
        "        low[i], low[k] = low[k], low[i]\n",
        "",
        (REFERENCE, DIGESTS),
    ),
    Mutant(
        "V's column operation skips the first nonzero entry of column t",
        SURGERY,
        "for k, x in entries:",
        "for k, x in entries[1:]:",
        (REFERENCE, DIGESTS),
    ),
    Mutant(
        "sign fix dropped",
        SURGERY,
        "            W[i] = [-x for x in W[i]]",
        "            pass",
        (REFERENCE, DIGESTS, "tests/test_surgery.py::TestSmithNormalForm::test_random_matrices"),
    ),
    Mutant(
        "row operations on M only (support from M's columns)",
        SURGERY,
        "support = [*zip(itertools.compress(itertools.count(), top), filter(None, top))]",
        "support = [*zip(itertools.compress(itertools.count(), top[:n]), filter(None, top[:n]))]",
        (REFERENCE, DIGESTS),
    ),
    Mutant(
        "row support from column t + 1: row t's pivot is never cleared below it",
        SURGERY,
        "support = [*zip(itertools.compress(itertools.count(), top), filter(None, top))]",
        "support = [*zip(itertools.compress(itertools.count(t + 1), top[t + 1:]), filter(None, top[t + 1:]))]",
        ("tests/test_surgery.py::TestSmithNormalForm::test_pivot_rule_pins_the_transforms[later-unit]",),
        timeout=20.0,
        hangs=True,
    ),
    Mutant(
        "promoted remainder row: ties go to the last row",
        SURGERY,
        "row_swap(t, min(left, key=lambda i: (abs(W[i][t]), i)))",
        "row_swap(t, min(left, key=lambda i: (abs(W[i][t]), -i)))",
        (REFERENCE, DIGESTS),
    ),
    Mutant(
        "no divisibility scan after a non-unit pivot",
        SURGERY,
        "            if abs(p) == 1:\n",
        "            if True:\n",
        (REFERENCE, DIGESTS, "tests/test_surgery.py::TestSmithNormalForm::test_coprime_diagonal_merges"),
    ),
    Mutant(
        "sign-blind divisibility test, blind to bad rows under a negative pivot",
        SURGERY,
        "math.gcd(*W[i][t + 1:n]) % p)",
        "math.gcd(*W[i][t + 1:n]) % p > 0)",
        (REFERENCE,),
    ),
    Mutant(
        "divisibility scan from column t + 2",
        SURGERY,
        "math.gcd(*W[i][t + 1:n]) % p)",
        "math.gcd(*W[i][t + 2:n]) % p)",
        (REFERENCE, DIGESTS),
    ),
    Mutant(
        "Bareiss row swap without the sign flip",
        SEIFERT,
        "rows[k], p, sign = top, top[k], -sign",
        "rows[k], p, sign = top, top[k], sign",
        (INT_DET,),
    ),
    Mutant(
        "Bareiss singular matrix gives 1",
        SEIFERT,
        "            else:\n                return 0\n",
        "            else:\n                return 1\n",
        (INT_DET,),
    ),
    Mutant(
        "Bareiss divisor never updated",
        SEIFERT,
        "        prev = p\n",
        "",
        (INT_DET,),
    ),
    Mutant(
        "cable run walked from its top strand down",
        LEGENDRIAN,
        "for k in reversed(range(a))",
        "for k in range(a)",
        (BLOCKWISE, FRONT_DIGESTS),
    ),
    Mutant(
        "bundle move with its (a, b) swapped",
        LEGENDRIAN,
        "[(_Bundle((a, b)), pos)] if",
        "[(_Bundle((b, a)), pos)] if",
        (BLOCKWISE, FRONT_DIGESTS),
    ),
    Mutant(
        "an omitted magnitude parsed as 0",
        "src/concordance/laurent.py",
        '(mag_s or "1")',
        '(mag_s or "0")',
        ("tests/test_laurent.py::test_parse_accepts_loose_variants",),
    ),
    Mutant(
        "lift certificate tests for a residue instead of a non-residue",
        "src/concordance/intfactor.py",
        "pow(r * r - 4, (p - 1) // 2, p) == p - 1",
        "pow(r * r - 4, (p - 1) // 2, p) == 1",
        ("tests/test_laurent.py::test_factor_matches_whole_product_route",),
    ),
    Mutant(
        "isolating intervals bisected only to width 1/2",
        "src/concordance/realroots.py",
        "_bisect(sf, a, b, d, Fraction(1, 64))",
        "_bisect(sf, a, b, d, Fraction(1, 2))",
        ("tests/test_realroots.py::test_integer_bisection_matches_the_fraction_bisection[lo0-hi0]",),
    ),
    Mutant(
        "the last arc, which holds omega = -1, sampled at u = 1",
        SEIFERT,
        "        return Fraction(0)\n",
        "        return Fraction(1)\n",
        ("tests/test_seifert.py::test_torus_knot_2_9_step_function",),
    ),
    Mutant(
        "the kernel handed the kept A itself when the scale s is 1",
        SEIFERT,
        "[[s * a for a in row] for row in A], [[-r * c",
        "[[s * a for a in row] for row in A] if s != 1 else A, [[-r * c",
        (KEPT_FORMS,),
    ),
    Mutant(
        "the constructor's determinant run on the kept S",
        SEIFERT,
        "_int_det([*map(list, self._S)])",
        "_int_det(self._S)",
        (KEPT_FORMS,),
    ),
    Mutant(
        "tau of a cable carried whatever the base tau",
        "src/concordance/cabling.py",
        "if base is not None and (p == 1 or genus is not None and base.value == genus.value):",
        "if base is not None:",
        ("tests/test_cabling.py::TestTauCableRule::test_only_tau_equal_to_genus_is_cabled",),
    ),
    Mutant(
        "a duplicate catalog name accepted",
        "src/concordance/catalog.py",
        "        if name in table:\n",
        "        if False:\n",
        (
            "tests/test_cli.py::TestLoadCatalog::test_file_names_are_unique_across_entries[front]",
            "tests/test_cli.py::TestLoadCatalog::test_file_names_are_unique_across_entries[presentation]",
        ),
    ),
    Mutant(
        "the degree bound refuses its own limit",
        "src/concordance/cli.py",
        "if degree > MAX_DEGREE:",
        "if degree >= MAX_DEGREE:",
        ("tests/test_cli.py::TestExitCodes::test_degree_bound_is_sharp",),
    ),
    Mutant(
        "cosine enclosure's upper end rounded inward",
        "src/concordance/cyclotomic.py",
        "Fraction(-(-hi >> guard - 1), 1 << prec)",
        "Fraction(hi >> guard - 1, 1 << prec)",
        (
            "tests/test_cyclotomic.py::test_cos2pi_bounds_encloses_known_values",
            "tests/test_cyclotomic.py::test_cos2pi_bounds_contains_mpmath_enclosure[64]",
            "tests/test_cyclotomic.py::test_cos2pi_bounds_contains_mpmath_enclosure[16384]",
        ),
    ),
)


def copy_tree(into):
    """The parts of the checkout that the tests need, without bytecode."""
    for name in COPIED:
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__", "out"))


def run_tests(root, tests, timeout):
    """Run `tests` under `root` in a fresh interpreter: (the ids that
    failed or errored, pytest's exit code), or None past the timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-o", "addopts=", *tests]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE))
    return failed, done.returncode


def apply(root, mutant):
    """Mutate the copy; the original text, or None when the entry's
    source is not in its file exactly once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.source) != 1:
        return None
    path.write_text(text.replace(mutant.source, mutant.replacement))
    return text


def check(root, mutant):
    """None when the mutant is caught, else what went wrong."""
    original = apply(root, mutant)
    if original is None:
        return f"stale entry: its source is not in {mutant.path} exactly once"
    try:
        outcome = run_tests(root, mutant.tests, mutant.timeout)
    finally:
        (root / mutant.path).write_text(original)
    if outcome is None:
        return None if mutant.hangs else f"ran past its timeout of {mutant.timeout} s"
    failed, _ = outcome
    survived = [test for test in mutant.tests if test not in failed]
    return f"survived: {', '.join(survived)} passed" if survived else None


def run(mutants, root):
    """Check `mutants` on the tree under `root`, changing it only while a
    mutant runs; a list of (name, problem), empty when all are caught."""
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    outcome = run_tests(root, tests, sum(mutant.timeout for mutant in mutants))
    if outcome is None or outcome[1]:
        detail = "ran past its timeout" if outcome is None else f"pytest exit code {outcome[1]}"
        return [("unmutated tree", f"{detail}; failing or missing: {', '.join(sorted(outcome[0])) if outcome else '-'}")]
    problems = []
    for mutant in mutants:
        problem = check(root, mutant)
        print(f"{'caught' if problem is None else 'FAIL'}: {mutant.name}" + (f": {problem}" if problem else ""), flush=True)
        if problem is not None:
            problems.append((mutant.name, problem))
    return problems


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        problems = run(MUTANTS, root)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
