"""Self-tests for the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that a seed fixes the operations and their outcomes, that
seeds differ, and that the oracle checks reject deliberately wrong
answers fed to them; the library is never altered.
"""

import copy
import itertools
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles as O  # noqa: E402
import pace as P  # noqa: E402
import run as bench  # noqa: E402
import workloads as W  # noqa: E402
from worker import Context, run_operations, set_up  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    _, lib, catalog = set_up()
    return Context(lib, catalog)


def first_ops(name, seed, cycles=2):
    return [op for cycle in itertools.islice(W.operations(name, seed), cycles) for op in cycle]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_operations(name):
    assert first_ops(name, 7) == first_ops(name, 7)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_different_seed_different_inputs(name):
    assert first_ops(name, 7) != first_ops(name, 8)


@pytest.mark.parametrize("name,count", [
    ("sigma-sweep", 10), ("cable-obstruct", 8), ("diagram-homology", 30), ("cli-cold", 3),
])
def test_same_seed_same_outcomes(ctx, name, count):
    runs = [run_operations(ctx, name, 3, 0, max_ops=count) for _ in range(2)]
    outcomes = [[o[:4] for o in run] for run in runs]
    assert len(outcomes[0]) == count
    assert outcomes[0] == outcomes[1]
    assert all(o[2] != "wrong" or W.known_wrong(o[0]) for o in outcomes[0])


def test_unreadable_answer_is_wrong(ctx, monkeypatch):
    # an answer the checker cannot parse counts as wrong, not as a raise
    prep, _, check = W.KINDS["cli"]
    monkeypatch.setitem(W.KINDS, "cli", (prep, lambda ctx, _, op: (0, "not json", ""), check))
    outcomes = run_operations(ctx, "cli-cold", 3, 0, max_ops=2)
    assert [o[2] for o in outcomes] == ["wrong", "wrong"]
    assert not any(W.known_wrong(o[0]) for o in outcomes)


def test_pace_scales_by_the_references_around_each_time():
    nominal = P.REFERENCE_S
    times = [0.010, 0.020, 0.030]
    assert P.paced(times, [nominal] * 3) == pytest.approx(times)
    # at half pace times halve; one stray reference in a window does not count
    slow = P.paced(times, [2 * nominal, 9 * nominal, 2 * nominal])
    assert slow == pytest.approx([0.005, 0.010, 0.015])
    assert P.scale(0.4, 4 * nominal, 0.5) == pytest.approx(0.2)


def test_import_split_credits_mpmath_to_cyclotomic():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |       mpmath",
        "import time:       200 |       1000 |     sympy",
        "import time:        50 |       1100 |   concordance.laurent",
        "import time:        20 |         20 |     concordance.cyclotomic",
        "import time:        30 |         50 |   concordance.seifert",
        "import time:        10 |       1160 | concordance",
    ])
    split = bench.split_imports(report)
    assert split == pytest.approx({"laurent": 800e-6, "cyclotomic": 320e-6})


def answer_of(ctx, op):
    prep, run, _ = W.KINDS[op.kind]
    return run(ctx, prep(ctx, op) if prep else None, op)


def find(name, kind, pred=lambda op: True):
    for cycle in W.operations(name, 11):
        for op in cycle:
            if op.kind == kind and pred(op):
                return op


def test_checker_flags_wrong_levine_tristram(ctx):
    op = find("sigma-sweep", "levine_tristram", lambda op: op.args[0].genus <= 2 and op.args[2] < 100)
    answer = answer_of(ctx, op)
    assert W.check_levine_tristram(ctx, op, answer)[0]
    wrong = answer + 2 if isinstance(answer, int) else 0
    assert not W.check_levine_tristram(ctx, op, wrong)[0]


def test_checker_flags_wrong_alexander(ctx):
    op = find("sigma-sweep", "alexander", lambda op: op.args[0].genus == 2)
    answer = answer_of(ctx, op)
    assert W.check_alexander(ctx, op, answer)[0]
    wrong = dict(answer)
    wrong[0] += 1
    assert not W.check_alexander(ctx, op, wrong)[0]


def test_checker_flags_wrong_finite_order_witness(ctx):
    op = find("cable-obstruct", "finite_order", lambda op: op.args[0][0] == "cat")
    verdict, category, witnesses = answer_of(ctx, op)
    assert W.check_finite_order(ctx, op, (verdict, category, witnesses))[0]
    if witnesses:
        bad = copy.deepcopy(witnesses)
        a, b = bad[0][1]["omega"]
        bad[0][1]["omega"] = (a + 1, b)
        assert not W.check_finite_order(ctx, op, (verdict, category, bad))[0]
    assert not W.check_finite_order(ctx, op, ("obstructed" if not witnesses else "no-obstruction-found", None, []))[0]


def test_checker_flags_wrong_fox_milnor_witness(ctx):
    twist = ("cat", "3-twist-negative-clasp")
    op = W.Op("t", "fox_milnor", ((twist, 1, False), (twist, 2, False), 3), 8.0)
    verdict, category, witnesses = answer_of(ctx, op)
    assert W.check_fox_milnor(ctx, op, (verdict, category, witnesses))[0]
    bad = copy.deepcopy(witnesses)
    bad[1][1]["multiplicity"] += 2
    assert not W.check_fox_milnor(ctx, op, (verdict, category, bad))[0]


def test_checker_flags_wrong_smith_form(ctx):
    op = find("diagram-homology", "snf", lambda op: len(op.args[0].q) >= 12)
    u, d, v = answer_of(ctx, op)
    assert W.check_snf(ctx, op, (u, d, v))[0]
    bad = [row[:] for row in d]
    bad[0][0] += 1
    assert not W.check_snf(ctx, op, (u, bad, v))[0]


def test_checker_flags_wrong_satellite(ctx):
    op = find("diagram-homology", "satellite")
    tb, rot, *bounds = answer_of(ctx, op)
    assert W.check_satellite(ctx, op, (tb, rot, *bounds))[0]
    assert not W.check_satellite(ctx, op, (tb + 1, rot, *bounds))[0]


def test_checker_flags_wrong_cli_output(ctx):
    op = W.Op("t", "cli", (("--output", "json", "signature", "RH-trefoil", "--omega", "1/3"),), 20.0)
    rc, out, err = answer_of(ctx, op)
    assert W.check_cli(ctx, op, (rc, out, err))[0]
    report = json.loads(out)
    report["signature"] = 0
    assert not W.check_cli(ctx, op, (rc, json.dumps(report), err))[0]


def test_litherland_oracle_matches_closed_form():
    # T(2,5): jumps at 1/10 and 3/10, sigma(-1) = -4; the mirror negates
    t25 = (("torus", 5, False),)
    assert [O.sigma(t25, Fraction(k, 20)) for k in (1, 3, 5, 7, 10)] == [0, -2, -2, -4, -4]
    assert O.sigma(t25, Fraction(1, 10)) == O.SINGULAR
    assert O.sigma((("torus", 5, True),), Fraction(1, 2)) == 4
