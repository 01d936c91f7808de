"""Recorded mutations of the library, rerun: each must fail its tests.

    python tests/mutants.py

Each entry of `MUTANTS` names a file, an exact piece of its source, the
replacement, the tests that must fail, and a timeout in seconds.  The
runner copies `src/` and `tests/` (and `perfbench/`, whose input
families the test oracles load, and `README.md`, whose command forms and
library example the package-surface test runs) to a temporary directory.
It first runs every named test there once, unmutated: each must be an id
that pytest collects, exactly as written (a parametrized test with its
parameter), and must pass.  Then, for each entry, it applies the
mutation to the copy, runs only the entry's tests, in a fresh
interpreter for each of their files, and puts the file back.  A test
fails when pytest reports it failed or errored, or reports an error for
its whole file (the mutant broke the file's imports; the entry's other
files still run).  A test survives when pytest reports it passed; a test
that pytest reports neither way (it was skipped, say) did not run.

The run fails, exit code 1, when
- an entry names a test id that pytest does not collect, or a named test
  fails on the unmutated tree: then no mutant runs, and none counts as
  caught;
- an entry's source text is not in its file exactly once: the code it
  mutates has changed, so the same change must update the table;
- a mutant survives: one of its tests passes;
- one of a mutant's tests does not run;
- a mutant runs past its timeout, unless its entry says it hangs.

Each pytest runs with its address space capped at `MEMORY_CAP`, so a
mutant that allocates without bound fails its tests with MemoryError
instead of taking the host's memory.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")
# bytes of address space per pytest child; a named test file with numpy
# and sympy loaded needs about 250 MB
MEMORY_CAP = 2 << 30


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
CHAIN_PASS = "tests/test_surgery.py::TestSmithNormalForm::test_pivot_rule_pins_the_transforms[chain-pass]"
CONTRACT = "tests/test_surgery.py::test_seeded_presentations_meet_the_contract"
INT_DET = "tests/test_seifert.py::test_int_det_matches_sympy"
ALEXANDER = "tests/test_seifert.py::test_alexander_matches_the_reference_interpolation"
S_EQUIVALENCE = "tests/test_seifert.py::test_alexander_is_invariant_under_s_equivalence"
LEGENDRIAN = "src/concordance/legendrian.py"
BLOCKWISE = "tests/test_legendrian.py::test_cables_and_satellites_match_the_blockwise_route"
FRONT_DIGESTS = "tests/test_legendrian.py::test_fronts_match_the_recorded_digests"
KEPT_FRONTS = "tests/test_legendrian.py::test_kept_fronts_match_a_fresh_build"
# the kept fronts' cache, redefined by two mutants as a shim that passes
# one argument around a cache keyed by the others
CABLED = (
    "@functools.lru_cache(maxsize=64)\n"
    "def _cabled(events, seam_strands, orient, n, pattern, splice_after, base):\n"
)
KEPT_FORMS = "tests/test_buffer_rule.py::test_readers_leave_the_kept_forms_unchanged_and_answer_twice_alike"
LAURENT = "src/concordance/laurent.py"
RECORDS = "tests/test_records.py"
DENSE = "tests/test_laurent.py::test_every_method_agrees_with_the_dict_reference"
PLACEMENT = "tests/test_seifert.py::test_integer_placement_matches_the_fraction_route"
ARC_SAMPLE = "tests/test_seifert.py::test_an_arc_sample_lies_strictly_inside_its_gap"
INTFACTOR = "src/concordance/intfactor.py"
CAPELLI = "tests/test_laurent.py::test_capelli_certificates_cover_no_split"
FOX_MILNOR = "tests/test_cabling.py::TestFoxMilnorObstruction"
CATALOG = "src/concordance/catalog.py"
LAZY_ALEXANDER = (
    "tests/test_lazy_modules.py::test_a_readme_form_runs_only_the_diagram_modules_it_reads"
    "[alexander_3-twist-negative-clasp]"
)

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
        "chain pass skipped",
        SURGERY,
        "    rank = len(diag) - diag.count(0)\n",
        "    rank = 0\n",
        (REFERENCE, DIGESTS, "tests/test_surgery.py::TestSmithNormalForm::test_coprime_diagonal_merges", CONTRACT),
    ),
    Mutant(
        "chain pass: V's column update dropped",
        SURGERY,
        "                V[j] = [y - c * x for x, y in zip(V[i], V[j])]\n",
        "",
        (REFERENCE, DIGESTS, CHAIN_PASS, CONTRACT),
    ),
    Mutant(
        "chain pass: the two Bezout rows exchanged",
        SURGERY,
        "                W[i][n:] = [s * x + u * y for x, y in zip(x_i, x_j)]\n"
        "                W[j][n:] = [a * y - b * x for x, y in zip(x_i, x_j)]\n",
        "                W[j][n:] = [s * x + u * y for x, y in zip(x_i, x_j)]\n"
        "                W[i][n:] = [a * y - b * x for x, y in zip(x_i, x_j)]\n",
        (REFERENCE, DIGESTS, CHAIN_PASS, CONTRACT),
    ),
    Mutant(
        "chain pass over adjacent entries only",
        SURGERY,
        "        for j in range(i + 1, rank):\n",
        "        for j in range(i + 1, min(i + 2, rank)):\n",
        (REFERENCE, DIGESTS, CONTRACT),
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
        "kept fronts keyed without the base",
        LEGENDRIAN,
        CABLED,
        "def _cabled(events, seam_strands, orient, n, pattern, splice_after, base):\n"
        "    _cabled.base = base\n"
        "    return _unbased(events, seam_strands, orient, n, pattern, splice_after)\n"
        "\n\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def _unbased(events, seam_strands, orient, n, pattern, splice_after):\n"
        "    base = _cabled.base\n",
        (KEPT_FRONTS,),
    ),
    Mutant(
        "kept fronts keyed without the companion's orient",
        LEGENDRIAN,
        CABLED,
        "def _cabled(events, seam_strands, orient, n, pattern, splice_after, base):\n"
        "    _cabled.orient = orient\n"
        "    return _unoriented(events, seam_strands, n, pattern, splice_after, base)\n"
        "\n\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def _unoriented(events, seam_strands, n, pattern, splice_after, base):\n"
        "    orient = _cabled.orient\n",
        (KEPT_FRONTS,),
    ),
    Mutant(
        "kept invariants stored on the class, not on the front",
        LEGENDRIAN,
        "        self._invariants = LegendrianInvariants(",
        "        type(self)._invariants = LegendrianInvariants(",
        ("tests/test_legendrian.py::test_each_front_keeps_its_own_invariants", FRONT_DIGESTS),
    ),
    Mutant(
        "an omitted magnitude parsed as 0",
        LAURENT,
        '(mag_s or "1")',
        '(mag_s or "0")',
        ("tests/test_laurent.py::test_parse_accepts_loose_variants",),
    ),
    Mutant(
        "lift certificate tests for a residue instead of a non-residue",
        INTFACTOR,
        "pow(r * r - 4, (p - 1) // 2, p) == p - 1",
        "pow(r * r - 4, (p - 1) // 2, p) == 1",
        ("tests/test_laurent.py::test_factor_matches_whole_product_route",),
    ),
    Mutant(
        "Capelli's d = 4 step dropped",
        INTFACTOR,
        "steps = prime_factors(j) + [4] * (j % 4 == 0)",
        "steps = prime_factors(j)",
        ("tests/test_laurent.py::test_the_fourth_power_step_splits_what_no_prime_step_splits",),
    ),
    Mutant(
        "a q(t^d) that splits taken as irreducible",
        INTFACTOR,
        "        if len(split) > 1:\n",
        "        if False:\n",
        ("tests/test_laurent.py::test_a_twist_polynomial_at_every_power_matches_sympy[1]",),
    ),
    Mutant(
        "Capelli certificate taken from a j-th power instead of a non-power",
        INTFACTOR,
        "pow(r, (p - 1) // e, p) != 1",
        "pow(r, (p - 1) // e, p) == 1",
        (CAPELLI,),
    ),
    Mutant(
        "Capelli certificate tried at primes not 1 mod j",
        INTFACTOR,
        "step = 2 * j if j % 2 else j",
        "step = 2",
        (CAPELLI,),
    ),
    Mutant(
        "Capelli certificate at j = 4 asks for no fourth power, not for no square",
        INTFACTOR,
        "e = 2 if j == 4 else j",
        "e = j",
        (CAPELLI,),
    ),
    Mutant(
        "k dropped from the Fox-Milnor cache key (every k compares equal)",
        "src/concordance/cabling.py",
        "result = _pairing_at(*pair, k)",
        'result = _pairing_at(*pair, type("AnyK", (int,), {"__eq__": lambda a, b: True, "__hash__": lambda a: 0})(k))',
        (
            f"{FOX_MILNOR}::test_each_pairing_is_decided_once_per_pair_of_deltas_and_k",
            f"{FOX_MILNOR}::test_trefoil_vs_cable_to_degree_120_is_fast",
        ),
    ),
    Mutant(
        "the binomials with mu = 1 and mu = -1 swapped in Phi_b",
        "src/concordance/cyclotomic.py",
        "(down if r % 2 else up)",
        "(up if r % 2 else down)",
        (
            "tests/test_cyclotomic.py::test_cyclotomic_polynomials_match_known_table",
            "tests/test_cyclotomic.py::test_cyclotomic_polynomials_match_sympy_to_1500_and_at_2310",
        ),
    ),
    Mutant(
        "isolating intervals bisected only to width 1/2",
        "src/concordance/realroots.py",
        "_sign_at(sf, a, d), 1, 64))",
        "_sign_at(sf, a, d), 1, 2))",
        ("tests/test_realroots.py::test_integer_bisection_matches_the_fraction_bisection[lo0-hi0]",),
    ),
    Mutant(
        "markers sorted by their lower numerators, whatever their denominators",
        "src/concordance/realroots.py",
        "markers.sort(key=lambda m: m.lo_num * (top // m.den))",
        "markers.sort(key=lambda m: m.lo_num)",
        ("tests/test_realroots.py::test_isolate_roots_finds_each_root_once[lo0-hi0]",),
    ),
    Mutant(
        "a marker's cross-multiplication with n/d reversed at its lower end",
        "src/concordance/realroots.py",
        "        if x <= self.lo_num * d:\n",
        "        if n * d <= self.lo_num * self.den:\n",
        (PLACEMENT, "tests/test_cabling.py::TestAgainstAngleScan::test_finite_order_matches_scan"),
    ),
    Mutant(
        "a marker's cached lower-end sign taken at its upper end",
        "src/concordance/realroots.py",
        "_bisect(sf, a, b, d, _sign_at(sf, a, d),",
        "_bisect(sf, a, b, d, _sign_at(sf, b, d),",
        (PLACEMENT, "tests/test_realroots.py::test_integer_bisection_matches_the_fraction_bisection[lo0-hi0]"),
    ),
    Mutant(
        "the pullback's homogenized v_p(x) over one power of d too few",
        SEIFERT,
        "            den = d**p\n",
        "            den = d ** (p - 1)\n",
        (PLACEMENT, "tests/test_seifert.py::test_cached_circle_arcs_match_the_direct_route"),
    ),
    Mutant(
        "the last arc, which holds omega = -1, sampled at u = 1",
        SEIFERT,
        "        return 0, 1\n",
        "        return 1, 1\n",
        ("tests/test_seifert.py::test_torus_knot_2_9_step_function",),
    ),
    Mutant(
        "the sample's gap test made non-strict: intervals that share an end are not refined apart",
        SEIFERT,
        "    while lower.hi_num * bd >= b * lower.den:\n",
        "    while lower.hi_num * bd > b * lower.den:\n",
        (ARC_SAMPLE,),
        timeout=30.0,
        hangs=True,
    ),
    Mutant(
        "the sample's test u^2 < beta made non-strict: x(u) may be the upper root itself",
        SEIFERT,
        "(2 * bd - b) * r * r < (2 * bd + b) * s * s",
        "(2 * bd - b) * r * r <= (2 * bd + b) * s * s",
        (ARC_SAMPLE,),
    ),
    Mutant(
        "the sample's final in-arc check dropped",
        SEIFERT,
        "    if not (a * m < n * ad and n * bd < b * m):\n",
        "    if False:\n",
        ("tests/test_seifert.py::test_an_arc_sample_outside_its_arc_is_refused",),
    ),
    Mutant(
        "the kernel handed the kept A itself when the scale s is 1",
        SEIFERT,
        "[[s * a for a in row] for row in A], [[-r * c",
        "[[s * a for a in row] for row in A] if s != 1 else A, [[-r * c",
        (KEPT_FORMS,),
    ),
    Mutant(
        "the balanced-digit correction dropped: digits read in [0, 2^w)",
        LAURENT,
        "        if digit >= half:\n",
        "        if False:\n",
        (ALEXANDER, DENSE, KEPT_FORMS),
    ),
    Mutant(
        "the carry dropped after a negative digit: Kronecker digits unpacked without the borrow",
        LAURENT,
        "            value += 1\n",
        "",
        (ALEXANDER, DENSE, "tests/test_laurent.py::test_factor_spec_products"),
    ),
    Mutant(
        "a negative digit's borrow taken with the digit left in [0, 2^w)",
        LAURENT,
        "            digit -= 1 << w\n",
        "",
        (ALEXANDER, DENSE),
    ),
    Mutant(
        "the unimodularity check read off r_g instead of r_0",
        SEIFERT,
        "    if r[0] != 1:\n",
        "    if r[-1] != 1:\n",
        (KEPT_FORMS, "tests/test_seifert.py::test_construction_validates"),
    ),
    Mutant(
        "(x - 2) and (x + 2) swapped in the lift table",
        SEIFERT,
        "        for root in [2] * j + [-2] * (g - j):",
        "        for root in [-2] * j + [2] * (g - j):",
        (ALEXANDER, KEPT_FORMS, S_EQUIVALENCE),
    ),
    Mutant(
        "the half mirrored one place off: the middle coefficient doubled",
        SEIFERT,
        "    coeffs += coeffs[-2::-1]\n",
        "    coeffs += coeffs[::-1]\n",
        (ALEXANDER, KEPT_FORMS, S_EQUIVALENCE),
    ),
    Mutant(
        "the sign of delta left as the lift gives it",
        SEIFERT,
        "    if next(filter(None, coeffs)) < 0:\n        coeffs = [-a for a in coeffs]\n",
        "",
        (ALEXANDER, KEPT_FORMS, S_EQUIVALENCE),
    ),
    Mutant(
        "no genus cap on a Seifert matrix",
        SEIFERT,
        "        if n > 2 * MAX_GENUS:\n",
        "        if False:\n",
        (
            "tests/test_seifert.py::test_a_matrix_above_the_genus_cap_is_refused_at_once",
            "tests/test_cli.py::TestLoadCatalog::test_a_matrix_above_the_genus_cap_fails_every_command_at_once",
        ),
    ),
    Mutant(
        "the digit bound one binary digit short: W^4 > 2h",
        SEIFERT,
        "    B = (h.bit_length() + 5) // 4",
        "    B = (h.bit_length() + 4) // 4",
        (ALEXANDER,),
    ),
    Mutant(
        "the digit bound h taken over the first row only",
        SEIFERT,
        "    for rs, ra in zip(S, A):\n",
        "    for rs, ra in zip(S[:1], A[:1]):\n",
        (ALEXANDER,),
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
        CATALOG,
        "        if name in table:\n",
        "        if False:\n",
        (
            "tests/test_cli.py::TestLoadCatalog::test_file_names_are_unique_across_entries[front]",
            "tests/test_cli.py::TestLoadCatalog::test_file_names_are_unique_across_entries[pattern]",
        ),
    ),
    Mutant(
        "the package's lazy table maps a surgery name to legendrian",
        "src/concordance/__init__.py",
        "], surgery)\n",
        '], surgery) | {"SurgeryPresentation": legendrian}\n',
        (
            "tests/test_lazy_modules.py::test_a_lazy_name_read_through_the_package_runs_only_its_module"
            "[SurgeryPresentation-surgery]",
            "tests/test_lazy_modules.py::test_the_lazy_table_maps_each_lazy_modules_public_names_to_it",
        ),
    ),
    Mutant(
        "the catalog locates its bundled files through importlib.resources again",
        CATALOG,
        "from contextlib import contextmanager\n",
        "from contextlib import contextmanager\nfrom importlib import resources\n",
        (
            "tests/test_lazy_modules.py::test_the_library_and_its_catalog_load_no_resources_pathlib_or_typing",
            LAZY_ALEXANDER,
        ),
    ),
    Mutant(
        "the catalog parses each entry's fronts and pattern at load",
        CATALOG,
        "    return name, profile, files, read\n",
        "    read()\n    return name, profile, files, read\n",
        (LAZY_ALEXANDER, "tests/test_cli.py::TestLoadCatalog::test_front_files_are_read_at_the_first_read_of_their_entry"),
    ),
    Mutant(
        "a private name read through a sibling module object",
        CATALOG,
        "        return legendrian.front_from_text(text)\n",
        "        return legendrian.front_from_text(text) if legendrian._PLAIN_RUN else None\n",
        ("tests/test_no_private_imports.py::test_no_module_reads_private_names_through_a_sibling_module",),
    ),
    Mutant(
        "record equality without the class test",
        LAURENT,
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, Record):\n",
        (f"{RECORDS}::test_equality_and_hash_by_class_and_field_tuple[Cited]",),
    ),
    Mutant(
        "record equality and hash over all but the last field",
        LAURENT,
        "operator.attrgetter(*names)",
        "operator.attrgetter(*names[:-1])",
        (f"{RECORDS}::test_equality_and_hash_by_class_and_field_tuple[Factorization]",),
    ),
    Mutant(
        "a record field that can be assigned",
        LAURENT,
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        (
            f"{RECORDS}::test_fields_cannot_be_assigned_or_deleted[RootOfUnity]",
            "tests/test_seifert.py::test_markers_are_values",
        ),
    ),
    Mutant(
        "a record's __init__ that skips __post_init__",
        LAURENT,
        '        if hasattr(cls, "__post_init__"):\n',
        "        if False:\n",
        (f"{RECORDS}::test_post_init_runs_once[Cited]", f"{RECORDS}::test_post_init_checks_and_normalizes"),
    ),
    Mutant(
        "a step function accepts delta(1) = 0",
        SEIFERT,
        "        if abs(at_one) != 1:\n",
        "        if abs(at_one) > 1:\n",
        ("tests/test_seifert.py::test_a_delta_with_delta_at_one_not_a_unit_is_refused",),
    ),
    Mutant(
        "an int operand of * taken as a constant polynomial",
        LAURENT,
        "        if not isinstance(other, LaurentPoly):\n            return NotImplemented\n        x, y",
        "        if not isinstance(other, LaurentPoly):\n            other = LaurentPoly({0: other})\n        x, y",
        ("tests/test_laurent.py::test_an_int_is_no_operand",),
    ),
    Mutant(
        "the trusted constructor keeps zeros at the low end",
        LAURENT,
        "    while start < stop and not coeffs[start]:\n        start += 1\n",
        "",
        (DENSE,),
    ),
    Mutant(
        "the trusted constructor keeps zeros at the high end",
        LAURENT,
        "    while stop > start and not coeffs[stop - 1]:\n        stop -= 1\n",
        "",
        (DENSE,),
    ),
    Mutant(
        "the rows rule accepts a bool as an int",
        LAURENT,
        "itertools.chain.from_iterable(rows))} <= {int} or",
        "itertools.chain.from_iterable(rows))} <= {int, bool} or",
        (
            "tests/test_seifert.py::test_construction_validates",
            "tests/test_surgery.py::TestSmithNormalForm::test_entries_are_checked_not_truncated[bool]",
            "tests/test_surgery.py::TestSurgeryPresentation::test_entries_are_checked_not_truncated",
        ),
    ),
    Mutant(
        "clear_caches also empties the unbounded caches of constants",
        LAURENT,
        ' and value.cache_parameters()["maxsize"] is not None:',
        ":",
        ("tests/test_caches.py::test_clear_caches_empties_the_bounded_caches_and_keeps_the_constants",),
    ),
    Mutant(
        "clear_caches tells a cache by isinstance, which runs a lazy module that a global holds",
        LAURENT,
        "if type(value) is lru and",
        "if isinstance(value, lru) and",
        ("tests/test_lazy_modules.py::test_clearing_the_caches_runs_neither",),
    ),
    Mutant(
        "a method that only tests call, named like a record field",
        SEIFERT,
        "    @property\n    def size(self) -> int:\n",
        "    @property\n    def genus(self) -> int:\n        return len(self.entries) // 2\n\n"
        "    @property\n    def size(self) -> int:\n",
        ("tests/test_package_surface.py::test_every_public_name_is_reached_named_by_the_readme_or_listed",),
    ),
    Mutant(
        "the span bound refuses its own limit",
        LAURENT,
        "if span > MAX_SPAN:",
        "if span >= MAX_SPAN:",
        ("tests/test_laurent.py::test_span_bound_is_sharp",),
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
        "return lo >> guard - 1, -(-hi >> guard - 1)",
        "return lo >> guard - 1, hi >> guard - 1",
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
    shutil.copy(ROOT / "README.md", into / "README.md")


def cap_memory():
    """Cap this process's address space at MEMORY_CAP."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_pytest(root, args, timeout):
    """pytest on `args` under `root` in a fresh interpreter, without
    bytecode or cache, its address space capped at MEMORY_CAP; the
    finished process, or None past the timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=", *args]
    try:
        return subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=cap_memory
        )
    except subprocess.TimeoutExpired:
        return None


def collected(root, tests):
    """The test ids that pytest collects from the files of `tests`."""
    done = run_pytest(root, ["--collect-only", *sorted({test.split("::")[0] for test in tests})], 600)
    return set() if done is None else {line for line in done.stdout.splitlines() if "::" in line}


def run_tests(root, tests, timeout):
    """Run `tests` under `root`, one pytest per file, so that a file that
    fails to import stops none of the others: (the named tests that failed
    or errored, each also when its whole file errored; those that passed;
    the largest exit code), or None when the runs together pass the
    timeout."""
    deadline = time.monotonic() + timeout
    failed, passed, code = set(), set(), 0
    for path in sorted({test.split("::")[0] for test in tests}):
        group = [test for test in tests if test.split("::")[0] == path]
        done = run_pytest(root, ["-rfEp", *group], deadline - time.monotonic())
        if done is None:
            return None
        reported = re.findall(r"^(FAILED|ERROR|PASSED) (\S+)", done.stdout, re.MULTILINE)
        bad = {test for outcome, test in reported if outcome != "PASSED"}
        failed |= {test for test in group if test in bad or path in bad}
        passed |= {test for outcome, test in reported if outcome == "PASSED"} & set(group)
        code = max(code, done.returncode)
    return failed, passed, code


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
    failed, passed, _ = outcome
    survived = [test for test in mutant.tests if test not in failed and test in passed]
    not_run = [test for test in mutant.tests if test not in failed and test not in passed]
    problems = []
    if survived:
        problems.append(f"survived: {', '.join(survived)} passed")
    if not_run:
        problems.append(f"not run: {', '.join(not_run)}")
    return "; ".join(problems) or None


def report(name, problem):
    """Print one outcome as it is known."""
    print(f"{'caught' if problem is None else 'FAIL'}: {name}" + (f": {problem}" if problem else ""), flush=True)


def run(mutants, root):
    """Check `mutants` on the tree under `root`, changing it only while a
    mutant runs: (the number caught, a list of (name, problem)), the list
    empty when all are caught."""
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    known = collected(root, tests)
    problems = [
        (mutant.name, f"pytest collects no test {test}")
        for mutant in mutants
        for test in mutant.tests
        if test not in known
    ]
    if not problems:
        outcome = run_tests(root, tests, sum(mutant.timeout for mutant in mutants))
        if outcome is None:
            problems = [("unmutated tree", "ran past its timeout")]
        elif outcome[2]:
            problems = [("unmutated tree", f"pytest exit code {outcome[2]}; failing: {', '.join(sorted(outcome[0]))}")]
    if problems:
        for name, problem in problems:
            report(name, problem)
        return 0, problems
    for mutant in mutants:
        problem = check(root, mutant)
        report(mutant.name, problem)
        if problem is not None:
            problems.append((mutant.name, problem))
    return len(mutants) - len(problems), problems


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        caught, problems = run(MUTANTS, root)
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
