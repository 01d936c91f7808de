"""Seifert-matrix invariants: frozen small-knot values, a numpy
eigenvalue oracle, and the algebraic symmetries of signatures.

The printed Alexander polynomial and the signature jumps of a fixed set
of seeded and catalog matrices are pinned in
``data/alexander_digests.json``.  An intended change to them regenerates
the file:

    PYTHONPATH=src python tests/test_seifert.py
"""

import json
import math
import random
import re
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import concordance.seifert as seifert_module
from _oracles import (
    clear_caches,
    cyclotomic_levine_tristram,
    families,
    is_jump,
    laurent_at_sign,
    marker_ends,
    reference_alexander,
    reference_compare,
    reference_markers_above,
    reference_pullback_point,
    reference_signature_at,
    scrambled_seifert,
    sympy_alexander,
    x_of_u,
)

from concordance.catalog import load_catalog
from concordance.cyclotomic import trace_polynomial, v_polys
from concordance.laurent import LaurentPoly, doteq
from concordance.realroots import isolate_roots, poly_eval
from concordance.seifert import (
    OmegaIsOne,
    RootOfUnity,
    SeifertMatrix,
    SingularAtOmega,
    _arc_index,
    _hermitian_signature,
    alexander,
    block_sum,
    first_witness,
    levine_tristram,
    mirror,
    SignatureFunction,
    signature_function,
)

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="right-handed trefoil")
FIGURE_EIGHT = SeifertMatrix([[-1, 1], [0, 1]], name="figure-eight")
TWIST3 = SeifertMatrix([[-1, 1], [0, 3]], name="3-twist knot")
UNKNOT = SeifertMatrix([], name="unknot")


def test_construction_validates():
    with pytest.raises(ValueError):
        SeifertMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        SeifertMatrix([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        SeifertMatrix([[1]])  # odd size cannot satisfy the skew condition
    with pytest.raises(TypeError):
        SeifertMatrix([[0.5, 1], [0, 1]])
    with pytest.raises(TypeError):
        SeifertMatrix([[True, 1], [0, 1]])
    assert len(TREFOIL.entries) // 2 == 1 and len(UNKNOT.entries) // 2 == 0
    assert TREFOIL.entries[0][1] == 1


def test_construction_rejects_a_skew_form_that_is_not_unimodular():
    # det(V - V^T) = Pf(V - V^T)^2 is a square, so |det| = 2 cannot occur:
    # 0 (a zero form, an odd size) and 4 and 9 (Pfaffian 2 and 3) are refused
    for rows in ([[0, 0], [0, 0]], [[1, 1], [1, 1]], [[1, 0, 0], [1, 1, 0], [0, 2, 1]],
                 [[0, 2], [0, 0]], [[1, 0], [3, 1]]):
        with pytest.raises(ValueError, match=re.escape("|det(V - V^T)| must be 1")):
            SeifertMatrix(rows)


def test_construction_leaves_the_callers_rows_unchanged():
    rng = random.Random(30)
    for genus in range(1, 6):
        rows = [list(row) for row in families.random_knot(rng, genus, density=4).seifert()]
        before = [row[:] for row in rows]
        v = SeifertMatrix(rows)
        alexander(v), signature_function(v)
        assert rows == before
        assert v.entries == tuple(map(tuple, before))


def _trefoils(count):
    """The block sum of `count` right-handed trefoils, as rows."""
    rows = [[0] * 2 * count for _ in range(2 * count)]
    for i in range(0, 2 * count, 2):
        rows[i][i], rows[i][i + 1], rows[i + 1][i + 1] = -1, 1, -1
    return rows


def test_a_matrix_above_the_genus_cap_is_refused_at_once():
    # the cap is checked before any arithmetic; genus 32 is still taken
    assert seifert_module.MAX_GENUS == 32
    assert alexander(SeifertMatrix(_trefoils(32))) == alexander(TREFOIL) ** 32
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape("Seifert matrix of size 66 is above 2 * MAX_GENUS = 64")):
        SeifertMatrix(_trefoils(33))
    assert time.perf_counter() - start < 0.1


def _enlarged(rng, rows):
    """The elementary enlargement [[V, xi, 0], [eta^T, x, 1], [0, 0, 0]]
    of V, with random integer xi, eta and x: S-equivalent to V."""
    n = len(rows)
    out = [[*row, rng.randint(-3, 3), 0] for row in rows]
    out.append([*(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3), 1])
    out.append([0] * (n + 2))
    return out


def test_alexander_is_invariant_under_s_equivalence():
    # 1-4 enlargements, then a unimodular congruence: the top digits of
    # D vanish, so the lift's half starts with up to 4 zeros, which the
    # symmetric trim of the mirrored list removes at both ends
    rng = random.Random(4747)
    for _ in range(200):
        v = SeifertMatrix(families.random_knot(rng, rng.randint(1, 4)).seifert())
        rows = v.entries
        for _ in range(rng.randint(1, 4)):
            rows = _enlarged(rng, rows)
        w = scrambled_seifert(rng, SeifertMatrix(rows))
        delta = alexander(w)
        assert delta == alexander(v), (v, w)
        assert delta.low() == -delta.high() and delta.coeffs[-1] > 0


def _det_cases():
    """Square integer matrices of size 0-10: dense and sparse, then with a
    zero leading entry (a row swap at the first step), then singular (a
    zero column, or a last row that is the sum of two others)."""
    rng = random.Random(31)
    for n in range(11):
        for _ in range(4):
            yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            yield [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        if n < 2:
            continue
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m[0][0] = 0
        yield m
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        for row in m:
            row[rng.randrange(n)] = 0
            row[0] = 0
        m[-1][0] = 1
        yield m
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for row in m:
            row[n // 2] = 0
        yield m
        if n > 2:
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
            m.append([a + b for a, b in zip(m[0], m[1])])
            yield m


def test_int_det_matches_sympy():
    cases = list(_det_cases())
    dets = []
    for m in cases:
        expected = int(DomainMatrix.from_list(m, sympy.ZZ).det()) if m else 1
        dets.append(expected)
        assert seifert_module._int_det([row[:] for row in m]) == expected, m
    # the cases reach the swap with its sign flip and both ways to 0
    assert any(m and m[0][0] == 0 and d for m, d in zip(cases, dets))
    assert any(d < 0 for d in dets) and any(d > 0 for d in dets)
    assert sum(d == 0 for d in dets) >= 20


class _Int(int):
    pass


def test_construction_checks_rows_in_order():
    # row 0 has a bad entry and row 1 is short: the integer check of row 0
    # comes before the squareness check of row 1
    with pytest.raises(TypeError, match="Seifert matrix entries must be integers"):
        SeifertMatrix([[0.5, 1], [0]])
    with pytest.raises(ValueError, match="Seifert matrix must be square"):
        SeifertMatrix([[0, 1], [0.5]])
    # an int subclass is an integer: accepted, equal to the plain matrix
    assert SeifertMatrix([[_Int(-1), 1], [0, _Int(-1)]]).entries == TREFOIL.entries


def test_alexander_frozen_values():
    assert str(alexander(TREFOIL)) == "1*t^1 - 1 + 1*t^-1"
    assert str(alexander(FIGURE_EIGHT)) == "1*t^1 - 3 + 1*t^-1"
    assert str(alexander(TWIST3)) == "3*t^1 - 7 + 3*t^-1"
    assert alexander(UNKNOT) == LaurentPoly.one()


def test_alexander_normal_form_properties():
    for v in (TREFOIL, FIGURE_EIGHT, TWIST3, block_sum(TREFOIL, TWIST3)):
        d = alexander(v)
        assert d.reciprocal() == d
        assert doteq(d, d.reciprocal())
        assert abs(laurent_at_sign(d, 1)) == 1


def test_root_of_unity_normalization():
    assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
    assert RootOfUnity(-1, 6) == RootOfUnity(5, 6)
    assert RootOfUnity(5, 5).is_one
    assert RootOfUnity(3, 12) == RootOfUnity(1, 4)
    assert str(RootOfUnity(1, 2)) == "e^(2*pi*i*1/2)"
    with pytest.raises(ValueError):
        RootOfUnity(1, 0)


def test_levine_tristram_frozen_values():
    assert levine_tristram(TREFOIL, RootOfUnity(1, 2)) == -2
    assert levine_tristram(FIGURE_EIGHT, RootOfUnity(1, 2)) == 0
    assert levine_tristram(TREFOIL, RootOfUnity(1, 7)) == 0
    assert levine_tristram(TREFOIL, RootOfUnity(2, 7)) == -2
    assert levine_tristram(TREFOIL, RootOfUnity(6, 7)) == 0
    for a, b in ((1, 3), (1, 2), (2, 7)):
        assert levine_tristram(UNKNOT, RootOfUnity(a, b)) == 0


def test_levine_tristram_error_cases():
    with pytest.raises(OmegaIsOne):
        levine_tristram(TREFOIL, RootOfUnity(0, 1))
    # the trefoil Alexander polynomial vanishes at order-6 roots
    with pytest.raises(SingularAtOmega):
        levine_tristram(TREFOIL, RootOfUnity(1, 6))
    with pytest.raises(SingularAtOmega):
        levine_tristram(TREFOIL, RootOfUnity(5, 6))
    # omega is a RootOfUnity, not an angle
    with pytest.raises(TypeError, match="RootOfUnity"):
        levine_tristram(TREFOIL, Fraction(1, 3))


def test_signature_function_trefoil_structure():
    sig = signature_function(TREFOIL)
    arcs = sig.arcs()
    assert [v for _, _, v in arcs] == [0, -2, 0]
    assert arcs[0][0] == 0.0 and arcs[-1][1] == 1.0
    assert abs(arcs[0][1] - 1 / 6) < 1e-9
    assert abs(arcs[1][1] - 5 / 6) < 1e-9
    jumps = sig.jumps()
    assert len(jumps) == 1
    assert abs(jumps[0][0] - 1 / 6) < 1e-9 and jumps[0][1] == -2
    assert sig.evaluate(Fraction(1, 3)) == -2
    assert sig.evaluate(RootOfUnity(1, 2)) == -2
    assert sig.evaluate(Fraction(9, 10)) == 0
    assert sig.evaluate(0) == 0
    assert is_jump(sig, Fraction(1, 6)) and is_jump(sig, Fraction(5, 6))
    assert not is_jump(sig, Fraction(1, 7))
    with pytest.raises(SingularAtOmega):
        sig.evaluate(Fraction(1, 6))
    # an angle outside [0, 1) is taken mod 1: 7/6 and -5/6 are the jump 1/6,
    # and 4/3 and -2/3 lie on the arc of 1/3
    for q in (Fraction(7, 6), Fraction(-5, 6)):
        assert is_jump(sig, q)
        with pytest.raises(SingularAtOmega):
            sig.evaluate(q)
    assert sig.evaluate(Fraction(4, 3)) == sig.evaluate(Fraction(-2, 3)) == -2
    assert not is_jump(sig, Fraction(4, 3)) and not is_jump(sig, Fraction(-2, 3))


def test_signature_function_no_jump_cases():
    assert signature_function(FIGURE_EIGHT).is_identically_zero()
    assert signature_function(TWIST3).is_identically_zero()
    assert signature_function(UNKNOT).arcs() == [(0.0, 1.0, 0)]


def test_block_sum_and_mirror_frozen_values():
    granny = block_sum(TREFOIL, TREFOIL)
    square = block_sum(TREFOIL, mirror(TREFOIL))
    assert levine_tristram(granny, RootOfUnity(1, 2)) == -4
    assert levine_tristram(mirror(TREFOIL), RootOfUnity(1, 2)) == 2
    assert signature_function(square).is_identically_zero()
    # jump markers survive even when the values cancel
    assert len(signature_function(square).jumps()) == 1
    sig_granny = signature_function(granny)
    assert [v for _, _, v in sig_granny.arcs()] == [0, -4, 0]


def _lt_oracle(v, a, b):
    om = np.exp(2j * np.pi * a / b)
    m = (1 - om) * np.array(v.entries) + (1 - om.conjugate()) * np.array(v.entries).T
    eigs = np.linalg.eigvalsh(m)
    assert min(abs(e) for e in eigs) > 1e-9
    return int(sum(1 for e in eigs if e > 0) - sum(1 for e in eigs if e < 0))


def test_levine_tristram_matches_numpy_oracle():
    rng = random.Random(97)
    mats = [TREFOIL, FIGURE_EIGHT, TWIST3, block_sum(TREFOIL, FIGURE_EIGHT)]
    sigs = [signature_function(v) for v in mats]
    checked = 0
    while checked < 60:
        v, sig = mats[rng.randrange(len(mats))], None
        i = mats.index(v)
        sig = sigs[i]
        b = rng.randint(2, 60)
        a = rng.randint(1, b - 1)
        q = Fraction(a, b)
        if is_jump(sig, q):
            continue
        got = levine_tristram(v, RootOfUnity(a, b))
        assert got == _lt_oracle(v, q.numerator, q.denominator)
        assert got == sig.evaluate(q)
        checked += 1


def _random_seifert(rng, genus, bound=2):
    n = 2 * genus
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = rng.randint(-bound, bound)
    for g in range(genus):
        s[2 * g][2 * g + 1] += 1
    return SeifertMatrix(s)


def test_signature_symmetries_on_random_matrices():
    rng = random.Random(4171)
    for _ in range(25):
        v1 = _random_seifert(rng, rng.randint(1, 2))
        v2 = _random_seifert(rng, 1)
        b = rng.choice([3, 4, 5, 7, 8, 9, 11])
        a = rng.randint(1, b - 1)
        om = RootOfUnity(a, b)
        try:
            s1 = levine_tristram(v1, om)
            s2 = levine_tristram(v2, om)
            s12 = levine_tristram(block_sum(v1, v2), om)
            sm = levine_tristram(mirror(v1), om)
            sc = levine_tristram(v1, RootOfUnity(-a, b))
        except SingularAtOmega:
            continue
        assert s1 % 2 == 0
        assert s12 == s1 + s2
        assert sm == -s1
        assert sc == s1


def test_congruence_invariance_of_signature():
    # V and P V P^T present the same form, so signatures agree
    rng = random.Random(555)
    for _ in range(10):
        v = _random_seifert(rng, 2)
        n = len(v.entries)
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    p[i][k] += c * p[j][k]
        w = [
            [
                sum(p[i][a] * v.entries[a][bb] * p[j][bb] for a in range(n) for bb in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        vw = SeifertMatrix(w)
        om = RootOfUnity(rng.randint(1, 10), 11)
        try:
            assert levine_tristram(v, om) == levine_tristram(vw, om)
        except SingularAtOmega:
            continue


def test_dense_sampling_agrees_with_arc_values():
    # 100 interior rational angles per arc, evaluated both through the
    # step function and through levine_tristram, which locates each angle
    # among the isolated roots and takes a rational signature there
    for v in (TREFOIL, FIGURE_EIGHT, block_sum(TREFOIL, TREFOIL)):
        sig = signature_function(v)
        for lo, hi, val in sig.arcs():
            n_grid = 1260
            ks = [k for k in range(1, n_grid) if lo < k / n_grid < hi]
            step = max(1, len(ks) // 100)
            picked = ks[::step][:100]
            assert len(picked) >= 100 or (hi - lo) < 0.1
            for k in picked:
                q = Fraction(k, n_grid)
                if is_jump(sig, q):
                    continue
                assert sig.evaluate(q) == val
                assert levine_tristram(v, RootOfUnity(q.numerator, q.denominator)) == val


def test_signature_function_values_always_even():
    rng = random.Random(31)
    for _ in range(6):
        v = _random_seifert(rng, rng.randint(1, 2))
        sig = signature_function(v)
        assert all(val % 2 == 0 for _, _, val in sig.arcs())


def _torus_2(q):
    """Seifert matrix of the torus knot T(2, q), q odd."""
    n = q - 1
    return SeifertMatrix(
        [[-1 if j == i else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    )


def test_hermitian_signature_matches_numpy():
    rng = random.Random(808)
    entries = (0, 0, 0, -2, -1, 1, 3)
    for _ in range(300):
        n = rng.randint(1, 7)
        R = [[0] * n for _ in range(n)]
        I = [[0] * n for _ in range(n)]
        for i in range(n):
            R[i][i] = rng.choice(entries)
            for j in range(i + 1, n):
                R[i][j] = R[j][i] = rng.choice(entries)
                I[i][j] = rng.choice(entries)
                I[j][i] = -I[i][j]
        if rng.random() < 0.5:
            for i in range(n):
                R[i][i] = 0  # forces the e_p <- e_p + e_j or + i*e_j step
        eigs = np.linalg.eigvalsh(np.array(R, dtype=float) + 1j * np.array(I, dtype=float))
        pos = sum(1 for e in eigs if e > 1e-9)
        neg = sum(1 for e in eigs if e < -1e-9)
        # the kernel overwrites its rows, so it gets copies
        assert _hermitian_signature([*map(list, R)], [*map(list, I)]) == (pos - neg, pos + neg), (R, I)


@pytest.mark.parametrize(
    "R, I, expected",
    [
        # [[0, i], [-i, 0]]: only the e_p <- e_p + i*e_j step finds a pivot
        ([[0, 0], [0, 0]], [[0, 1], [-1, 0]], (0, 2)),
        # L (1 + B) L* with B = [[0, i, 1], [-i, 0, 1 + i], [1, 1 - i, 0]]:
        # one real pivot leaves B, whose first entry is imaginary
        (
            [[1, 1, 2, 0], [1, 2, 2, 0], [2, 2, 4, 1], [0, 0, 1, 1]],
            [[0, -1, 0, 1], [1, 0, 3, 1], [0, -3, 0, 3], [-1, -1, -3, 0]],
            (2, 4),
        ),
        # rows 1 and 2 agree: rank 2 of 3, after the imaginary step
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]], (0, 2)),
    ],
    ids=["2x2", "4x4-after-a-real-pivot", "singular-3x3"],
)
def test_hermitian_signature_takes_the_imaginary_step(R, I, expected):
    assert _hermitian_signature(R, I) == expected


def test_signature_at_refuses_a_singular_form():
    # no rational u = cot(theta/2) is a circle root of an Alexander
    # polynomial (x = 2*cos(theta) = p/q needs 2q - p = 1 and then
    # u^2 = 4q - 1), so only a form that is no Seifert form reaches the check
    # u = r/s is printed in lowest terms, as a Fraction prints
    with pytest.raises(ArithmeticError, match="singular at the sample point u = 0$"):
        seifert_module._signature_at([[0, 0], [0, 0]], [[0, 1], [-1, 0]], 0, 3)
    with pytest.raises(ArithmeticError, match="singular at the sample point u = 2$"):
        seifert_module._signature_at([[2, 0], [0, 2]], [[0, 1], [-1, 0]], 4, 2)
    with pytest.raises(ArithmeticError, match="singular at the sample point u = -2/3$"):
        seifert_module._signature_at([[2, 0], [0, 2]], [[0, 3], [-3, 0]], -4, 6)


def test_signature_at_matches_the_real_model():
    # the 2g x 2g Hermitian form against the 4g x 4g real model, with u
    # on both sides of 0 and at 0 itself (omega = -1)
    rng = random.Random(26)
    cases = list(_reference_cases())
    assert {len(v.entries) // 2 for v in cases} == set(range(9))
    for v in cases:
        A, S = v._A, v._S
        us = [Fraction(0), Fraction(1, 3), Fraction(-1, 3)]
        us += [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(5)]
        for u in us:
            assert seifert_module._signature_at(A, S, u.numerator, u.denominator) == reference_signature_at(A, S, u), (v, u)


def test_levine_tristram_matches_cyclotomic_route():
    # random Seifert forms of genus <= 3 in scrambled bases, against the
    # Hermitian signature over Z[zeta_b], which shares no code with the
    # rational engine
    rng = random.Random(2026)
    checked = 0
    while checked < 160:
        v = scrambled_seifert(rng, _random_seifert(rng, rng.randint(1, 3)))
        b = rng.randint(2, 13)
        om = RootOfUnity(rng.randint(1, b - 1), b)
        try:
            got = levine_tristram(v, om)
        except SingularAtOmega:
            continue
        assert got == cyclotomic_levine_tristram(v, om.numerator, om.denominator)
        checked += 1


def test_levine_tristram_at_minus_one_matches_cyclotomic_route():
    # omega = -1 is the sample u = 0 of the last arc, read off a cold arc
    # table; delta(-1) = det(V + V^T) is odd, so it is never a jump
    rng = random.Random(2034)
    for genus in range(1, 5):
        for _ in range(3):
            v = scrambled_seifert(rng, _random_seifert(rng, genus))
            clear_caches()
            assert levine_tristram(v, RootOfUnity(1, 2)) == cyclotomic_levine_tristram(v, 1, 2)


def test_angle_zero_lies_on_arc_zero():
    # |delta(1)| = 1, also for delta(t^3), so angle 0 is no jump; it lies
    # on arc 0, whose value is 0
    v = _torus_2(9)
    sig = signature_function(v)
    pulled = sig.pullback(3)
    assert pulled._delta == alexander(v).substitute_power(3)
    for f in (signature_function(UNKNOT), sig, pulled):
        for zero in (0, Fraction(0), RootOfUnity(0, 1)):
            assert is_jump(f, zero) is False
            assert f.evaluate(zero) == 0


def test_genus_four_sum_at_one_sixteenth():
    # T + F + F + T with F the 3-twist knot: sigma_T(1/16) = 0 and
    # sigma_F = 0 everywhere
    v = block_sum(block_sum(TREFOIL, TWIST3), block_sum(TWIST3, TREFOIL))
    assert levine_tristram(v, RootOfUnity(1, 16)) == 0
    assert levine_tristram(v, RootOfUnity(1, 2)) == -4


def test_torus_knot_2_9_step_function():
    # Litherland: T(2, q) jumps by -2 at the angles (2j - 1)/(2q)
    v = _torus_2(9)
    assert str(alexander(v)) == (
        "1*t^4 - 1*t^3 + 1*t^2 - 1*t^1 + 1 - 1*t^-1 + 1*t^-2 - 1*t^-3 + 1*t^-4"
    )
    sig = signature_function(v)
    jumps = sig.jumps()
    assert [h for _, h in jumps] == [-2, -2, -2, -2]
    for (angle, _), j in zip(jumps, range(1, 5)):
        assert abs(angle - (2 * j - 1) / 18) < 1e-9
        assert is_jump(sig, Fraction(2 * j - 1, 18))
    assert sig._values == (0, -2, -4, -6, -8)


def test_markers_above_stops_at_the_first_root_not_above(monkeypatch):
    # T(2, 9) has four circle roots; a point on arc i is above none of the
    # roots after the i it counts, so placing it takes i compares for the
    # roots above and two for the root that decides (none on the last arc)
    from concordance.realroots import RootMarker

    markers, samples = seifert_module._circle_arcs(alexander(_torus_2(9)))
    assert len(markers) == 4
    calls = []
    compare = RootMarker.compare

    def counted(self, n, d):
        calls.append(self)
        return compare(self, n, d)

    monkeypatch.setattr(RootMarker, "compare", counted)
    for i, u in enumerate(samples):
        x = x_of_u(Fraction(*u))
        calls.clear()
        assert seifert_module._markers_above(markers, x.numerator, x.numerator, x.denominator) == i
        assert len(calls) == (i + 2 if i < len(markers) else i)


# Phi_4 * Phi_3 in balanced form: trace polynomial x * (x + 1), exact
# circle roots at x = 0 and x = -1
_PHI_4_PHI_3 = LaurentPoly({2: 1, 1: 1, 0: 2, -1: 1, -2: 1})


def test_an_arc_sample_lies_strictly_inside_its_gap():
    # between the exact roots x = -1 and x = 0, u = 1 is x = 0 itself: the
    # sample is the first dyadic u with x(u) strictly below 0, u = 3/4
    markers = seifert_module._circle_markers(trace_polynomial(_PHI_4_PHI_3.associate_normal().coeffs))
    assert [(m.sign_lo, *marker_ends(m)) for m in markers] == [(0, 0, 0), (0, -1, -1)]
    assert [seifert_module._arc_sample(markers, i) for i in range(3)] == [(2, 1), (3, 4), (0, 1)]
    # isolating intervals of 3x^2 - 1 that share the end 0: refined apart
    # before a sample is sought between them, at u = 1 (x = 0)
    from concordance.realroots import RootMarker

    shared = [RootMarker([-1, 0, 3], 0, 1, 1, -1), RootMarker([-1, 0, 3], -1, 0, 1, 1)]
    assert seifert_module._arc_sample(shared, 1) == (1, 1)
    # samples come in lowest terms
    for v in (T_2_5, TREFOIL, block_sum(T_2_5, TWIST3)):
        for r, s in seifert_module._circle_arcs(v.delta)[1]:
            assert s > 0 and math.gcd(r, s) == 1


def test_an_arc_sample_outside_its_arc_is_refused(monkeypatch):
    # the in-arc check is live: with an integer square root that answers
    # 0, the first sample tried between x = -1 and x = 0 is u = 1/2, at
    # x = -6/5, which the check refuses, printing u as a Fraction prints
    markers = seifert_module._circle_markers(trace_polynomial(_PHI_4_PHI_3.associate_normal().coeffs))
    monkeypatch.setattr(seifert_module, "math", types.SimpleNamespace(isqrt=lambda n: 0, gcd=math.gcd))
    with pytest.raises(ArithmeticError, match="^sample u = 1/2 fell outside its arc$"):
        seifert_module._arc_sample(markers, 1)


def test_levine_tristram_at_large_denominator_is_fast():
    start = time.perf_counter()
    assert levine_tristram(TREFOIL, RootOfUnity(1, 55440)) == 0
    assert time.perf_counter() - start < 1.0


T_2_5 = SeifertMatrix(
    [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]], name="T(2,5)"
)


@pytest.mark.parametrize("k", [*range(6, 21), 4290, 5000, 8000])
def test_levine_tristram_next_to_an_irrational_jump(k):
    # T(2,5) jumps by -2 at angle 1/10, where 2cos(2 pi / 10) is
    # irrational; 1/10 +- 10^-(k+1) are told apart from it exactly on
    # both sides, however far below 1e-9 the distance falls; from k = 5000
    # on that takes more than 16384 bits, which serve small denominators
    start = time.perf_counter()
    b = 10 ** (k + 1)
    assert levine_tristram(T_2_5, RootOfUnity(b // 10 + 1, b)) == -2
    assert levine_tristram(T_2_5, RootOfUnity(b // 10 - 1, b)) == 0
    assert time.perf_counter() - start < 2.0


def test_arc_index_at_a_jump_angle_fails_fast():
    markers = signature_function(T_2_5)._markers
    start = time.perf_counter()
    with pytest.raises(ArithmeticError):
        _arc_index(markers, 1, 10)
    assert time.perf_counter() - start < 1.0


# Phi_6, Phi_4 and Phi_3 in balanced form: trace polynomials x - 1, x and
# x + 1, whose roots are bisection points of (-2, 2), so exact markers
_EXACT_FACTORS = [LaurentPoly({1: 1, 0: c, -1: 1}) for c in (-1, 0, 1)]


def _over_one_denominator(xs):
    """The numerators of the Fractions xs over the lcm of their
    denominators, and that lcm."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def test_integer_placement_matches_the_fraction_route():
    # RootMarker.compare and _markers_above against the Fraction route of
    # compare_rational, on the isolating and exact markers of random knots'
    # trace polynomials, at each marker's ends and at dyadic and non-dyadic
    # rationals; and each pullback's arc values against its samples placed
    # by the Fraction route at v_p(x(u))
    rng = random.Random(4040)
    exact = 0
    for genus in range(1, 8):
        for extra in [None] + _EXACT_FACTORS:
            v = SeifertMatrix(families.random_knot(rng, genus).seifert())
            delta = v.delta if extra is None else v.delta * extra
            # descending in x, as a step function keeps them: _markers_above stops at the first root not above
            markers = isolate_roots(trace_polynomial(delta.associate_normal().coeffs), Fraction(-2), Fraction(2))[::-1]
            exact += sum(m.sign_lo == 0 for m in markers)
            # each marker's ends, and a dyadic and a non-dyadic point inside
            ends = map(marker_ends, markers)
            points = [x for lo, hi in ends for x in (lo, hi, (lo + hi) / 2, (2 * lo + hi) / 3)]
            points += [Fraction(rng.randrange(-2**20, 2**20), 2**rng.randrange(18, 21)) for _ in range(8)]
            points += [Fraction(rng.randrange(-2 * 10**6, 2 * 10**6), rng.randrange(3, 10**6, 2)) for _ in range(8)]
            points.sort()
            for m in markers:
                for x in points:
                    assert m.compare(x.numerator, x.denominator) == reference_compare(m, x), (m, x)
            for lo, hi in [(x, x) for x in points] + list(zip(points, points[1:])):
                (n_lo, n_hi), d = _over_one_denominator([lo, hi])
                assert seifert_module._markers_above(markers, n_lo, n_hi, d) == reference_markers_above(markers, lo, hi)
            if extra is None:
                sig = signature_function(v)
                for p in (2, 3):
                    samples = seifert_module._circle_arcs(v.delta.substitute_power(p))[1]
                    counts = [reference_markers_above(sig._markers, x, x)
                              for x in (reference_pullback_point(p, Fraction(*u)) for u in samples)]
                    assert list(sig.pullback(p)._values) == [sig._values[c] for c in counts]
    assert exact


def test_markers_are_values():
    rng = random.Random(1018)
    for genus in range(1, 6):
        for _ in range(3):
            v = SeifertMatrix(families.random_knot(rng, genus).seifert())
            sig = signature_function(v)
            jumps, arcs = sig.jumps(), sig.arcs()
            for q in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)):
                try:
                    assert sig.evaluate(q) == levine_tristram(v, RootOfUnity(q.numerator, q.denominator))
                except SingularAtOmega:
                    pass
            pb = sig.pullback(2)
            first_witness(sig, pb, lambda s0, s1: s0 == 0 and s1 != 0, 50)
            assert sig.jumps() == jumps and sig.arcs() == arcs
            for m in sig._markers:
                lo = m.lo_num
                with pytest.raises(AttributeError):
                    m.lo_num = m.hi_num
                assert m.lo_num == lo


def test_signature_function_of_repeated_twist_factor():
    # the compact polynomial is (3x - 7)^2, whose derivative divides it:
    # the gcd in the square-free step must stay exact on integer input
    sig = signature_function(block_sum(TWIST3, TWIST3))
    assert sig.jumps() == []
    assert sig.is_identically_zero()


def _torus_2_delta(q):
    """(t^q + 1)/(t + 1) = t^(q-1) - t^(q-2) + ... + 1, balanced."""
    g = (q - 1) // 2
    return LaurentPoly({e - g: (-1) ** e for e in range(q)})


def test_alexander_matches_sympy_oracle():
    # scrambled sums of twist knots, torus knots T(2, q) and random forms
    # of genus <= 4, against sympy's Berkowitz determinant of V - t*V^T
    rng = random.Random(1968)
    for _ in range(40):
        genus = rng.randint(1, 4)
        v = UNKNOT
        while len(v.entries) // 2 < genus:
            left = genus - len(v.entries) // 2
            kind = rng.randrange(3)
            if kind == 0:
                part = SeifertMatrix([[-1, 1], [0, rng.choice((-3, -2, 1, 2, 3))]])
            elif kind == 1:
                part = _torus_2(rng.choice((3, 5, 7)[:left]))
            else:
                part = _random_seifert(rng, rng.randint(1, min(left, 2)))
            v = block_sum(v, mirror(part) if rng.random() < 0.5 else part)
        v = scrambled_seifert(rng, v)
        assert alexander(v) == sympy_alexander(v)
    for q in (3, 5, 7, 9):
        v = scrambled_seifert(rng, _torus_2(q))
        assert alexander(v) == _torus_2_delta(q) == sympy_alexander(v)


def _reference_cases():
    """Scrambled sums of genus 0-8, sparse and dense, sums of one kind of
    summand, mirrors and block sums."""
    rng = random.Random(25)
    for genus in range(9):
        for density in (1, 4):
            for _ in range(2):
                yield SeifertMatrix(families.random_knot(rng, genus, density=density).seifert())
    for genus in range(1, 7):
        yield SeifertMatrix(families.random_knot(rng, genus, torus_share=1.0).seifert())
        yield SeifertMatrix(families.random_knot(rng, genus, torus_share=0.0).seifert())
    for genus in (2, 3, 5):
        v = SeifertMatrix(families.random_knot(rng, genus, density=2).seifert())
        w = SeifertMatrix(families.random_knot(rng, 8 - genus).seifert())
        yield mirror(v)
        yield block_sum(v, w)
        yield block_sum(mirror(w), v)
    # f(w) = 1 - m^2 w^2 with m = 2b - 1, and h = (1 + m)^4: |r_1| meets
    # the digit bound sqrt(h) within a factor (1 + 1/m)^2, so a bound one
    # binary digit short, W^4 > 2h, misreads r_1 when m / W lies in
    # (2^-1/2, 2^-1/4) for the W it takes, as at b = 25 * 2^k / 64 + 1
    for k in range(1, 41):
        for b in {2**k - 1, 2**k, 2**k + 1, 25 * 2**k // 64 + 1, rng.randint(2 ** (k - 1), 2**k)}:
            yield SeifertMatrix([[0, b], [b - 1, 0]])
    # symmetric parts with entries up to 2^21, most of them 2^20 or more
    # before the scramble, so the digits are wide at every genus
    for genus in range(1, 9):
        yield scrambled_seifert(rng, _random_seifert(rng, genus, 2**21))


def test_alexander_matches_the_reference_interpolation():
    # the one determinant of S + W*A against the 2g + 1 of V - k*V^T,
    # byte for byte in the printed normal form
    cases = list(_reference_cases())
    assert {len(v.entries) // 2 for v in cases} == set(range(9))
    for v in cases:
        assert str(alexander(v)) == str(reference_alexander(v)), v


@pytest.mark.parametrize("genus", range(1, 9))
def test_the_constructor_takes_one_determinant_and_alexander_none(monkeypatch, genus):
    entries = families.random_knot(random.Random(genus), genus, density=4).seifert()
    calls = []
    det = seifert_module._int_det

    def counted(rows):
        calls.append(len(rows))
        return det(rows)

    monkeypatch.setattr(seifert_module, "_int_det", counted)
    v = SeifertMatrix(entries)
    assert calls == [2 * genus]
    alexander(v)
    assert calls == [2 * genus]


def test_dense_genus_eight_alexander_is_fast():
    # a unimodular congruence of eight trefoils leaves few zero entries
    rng = random.Random(8)
    v = TREFOIL
    for _ in range(7):
        v = block_sum(v, TREFOIL)
    v = scrambled_seifert(rng, v)
    assert sum(1 for row in v.entries for x in row if x == 0) < 64
    start = time.perf_counter()
    delta = alexander(v)
    assert time.perf_counter() - start < 1.0
    expected = LaurentPoly.one()
    for _ in range(8):
        expected = expected * alexander(TREFOIL)
    assert delta == expected


def _pretzel(p, q, r):
    """Seifert matrix of the pretzel knot P(p, q, r), p, q, r odd."""
    return SeifertMatrix([[(p + q) // 2, (q + 1) // 2], [(q - 1) // 2, (q + r) // 2]])


def _pretzel_closed_forms(p, q, r):
    """(delta, sigma(-1)) of P(p, q, r) from D = pq + qr + rp: delta is
    ((D + 1)/4)(t + 1/t) - (D - 1)/2, and V + V^T = [[p + q, q], [q, q + r]]
    has determinant D, so it is definite exactly when D > 0, with the
    sign of p + q."""
    d = p * q + q * r + r * p
    delta = LaurentPoly({1: (d + 1) // 4, 0: -(d - 1) // 2, -1: (d + 1) // 4})
    return delta, 0 if d < 0 else (2 if p + q > 0 else -2)


def test_pretzel_sums_match_closed_forms():
    rng = random.Random(1923)
    odd = range(-9, 10, 2)
    cases = [[(-3, 5, 7)]] + [
        [tuple(rng.choice(odd) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        for _ in range(40)
    ]
    for summands in cases:
        v, delta, sigma = UNKNOT, LaurentPoly.one(), 0
        for pqr in summands:
            v = block_sum(v, _pretzel(*pqr))
            d, s = _pretzel_closed_forms(*pqr)
            delta, sigma = delta * d, sigma + s
        v = scrambled_seifert(rng, v)
        assert doteq(alexander(v), delta)
        product = 1
        for p, q, r in summands:
            product *= p * q + q * r + r * p
        assert abs(laurent_at_sign(alexander(v), -1)) == abs(product)
        assert levine_tristram(v, RootOfUnity(1, 2)) == sigma
        assert signature_function(v).evaluate(Fraction(1, 2)) == sigma
    assert alexander(_pretzel(-3, 5, 7)) == LaurentPoly.one()


def test_pretzel_sums_with_dyadic_circle_roots():
    # D = 2^k - 1 puts the circle root at x = 2 - 2^(2 - k), a bisection
    # point of (-2, 2); next to the roots of T(2, 3) (x = 1, also one) and
    # T(2, 5) it is found as an exact root with roots on both sides
    rng = random.Random(2015)
    for pqr, x in (((1, 1, 3), 3 / 2), ((1, 3, 3), 7 / 4), ((1, 3, 7), 15 / 8)):
        v = scrambled_seifert(rng, block_sum(block_sum(_pretzel(*pqr), TREFOIL), _torus_2(5)))
        sig = signature_function(v)
        angles = [angle for angle, _ in sig.jumps()]
        assert len(angles) == 4
        assert min(abs(a - np.arccos(x / 2) / (2 * np.pi)) for a in angles) < 1e-9
        for lo, hi, val in sig.arcs():
            q = Fraction((lo + hi) / 2).limit_denominator(10**4)
            assert lo < q < hi
            assert sig.evaluate(q) == val == levine_tristram(v, RootOfUnity(q.numerator, q.denominator))
            assert val == _lt_oracle(v, q.numerator, q.denominator)


def _direct_arcs(delta, value_at):
    """Markers, samples and arc values of delta from ``_circle_markers``
    and ``_arc_sample`` called directly, around the cache."""
    markers = seifert_module._circle_markers(trace_polynomial(delta.associate_normal().coeffs))
    samples = [seifert_module._arc_sample(markers, i) for i in range(len(markers) + 1)]
    return markers, samples, [value_at(r, s) for r, s in samples]


def _direct_route(v, ps):
    """_direct_arcs of v and of its pullbacks at each p in ps, each arc of
    a pullback placed among v's own markers at v_p(x(u))."""
    markers, samples, values = _direct_arcs(v.delta, lambda r, s: seifert_module._signature_at(v._A, v._S, r, s))

    def pulled_back(p):
        def value_at(r, s):
            x = poly_eval(v_polys(p)[p], x_of_u(Fraction(r, s)))
            return values[seifert_module._markers_above(markers, x.numerator, x.numerator, x.denominator)]

        return _direct_arcs(v.delta.substitute_power(p), value_at)

    return [(markers, samples, values)] + [pulled_back(p) for p in ps]


def _cached_route(v, ps):
    """Markers, samples (read from the cache) and arc values of the step
    function of v and of its pullbacks at each p in ps."""
    sig = signature_function(v)
    return [
        (list(f._markers), list(seifert_module._circle_arcs(f._delta)[1]), list(f._values))
        for f in [sig] + [sig.pullback(p) for p in ps]
    ]


def test_mirror_shares_the_circle_arcs_but_not_the_signatures():
    # a knot and its mirror have one delta: the mirror isolates nothing,
    # and its values are the negatives of the knot's
    clear_caches()
    right = signature_function(T_2_5)
    left = signature_function(mirror(T_2_5))
    info = seifert_module._circle_arcs.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert right._values == (0, -2, -4)
    assert left._values == (0, 2, 4)
    assert levine_tristram(T_2_5, RootOfUnity(2, 5)) == -4
    assert levine_tristram(mirror(T_2_5), RootOfUnity(2, 5)) == 4


def test_cached_circle_arcs_match_the_direct_route():
    # one cache for every knot and pullback, so two polynomials of one
    # degree meet in it; the warm pass isolates nothing
    rng = random.Random(2028)
    knots = [SeifertMatrix(families.random_knot(rng, genus).seifert()) for genus in [*range(1, 7)] * 2]
    ps = range(2, 6)
    clear_caches()
    cold = [_cached_route(v, ps) for v in knots]
    misses = seifert_module._circle_arcs.cache_info().misses
    warm = [_cached_route(v, ps) for v in knots]
    assert seifert_module._circle_arcs.cache_info().misses == misses
    assert cold == warm == [_direct_route(v, ps) for v in knots]


def test_levine_tristram_matches_the_step_function_at_seeded_angles():
    rng = random.Random(2029)
    for genus in range(1, 7):
        v = SeifertMatrix(families.random_knot(rng, genus).seifert())
        for _ in range(4):
            b = rng.randrange(2, 400)
            omega = RootOfUnity(rng.randrange(1, b), b)
            clear_caches()  # the first call below isolates, the others look up
            try:
                value = levine_tristram(v, omega)
            except SingularAtOmega:
                with pytest.raises(SingularAtOmega):
                    signature_function(v).evaluate(omega)
                continue
            assert signature_function(v).evaluate(omega) == value == levine_tristram(v, omega)


def test_no_prime_is_a_jump_denominator():
    # Phi_b(1) = b for a prime b, and delta(1) = +-1 for delta and its
    # pullbacks: first_witness scans prime denominators without a jump test
    rng = random.Random(3701)
    small_primes = [b for b in range(2, 212) if all(b % d for d in range(2, b))]
    for genus in range(1, 5):
        for _ in range(3):
            sig = signature_function(SeifertMatrix(families.random_knot(rng, genus).seifert()))
            for f in (sig, sig.pullback(2), sig.pullback(3)):
                assert not any(is_jump(f, Fraction(1, b)) for b in small_primes)


def test_a_delta_with_delta_at_one_not_a_unit_is_refused():
    # t + 1 + 1/t is Phi_3 up to a unit: delta(1) = 3, and angle 1/3 would
    # be a jump of prime denominator; t - 2 + 1/t vanishes at 1
    for delta, at_one in ((LaurentPoly({1: 1, 0: 1, -1: 1}), 3), (LaurentPoly({1: 1, 0: -2, -1: 1}), 0)):
        with pytest.raises(ValueError, match=rf"\|delta\(1\)\| = {at_one}, not 1"):
            SignatureFunction(delta, lambda r, s: 0)


def test_warm_entries_are_unchanged_by_their_users():
    def fields(entry):
        markers, samples = entry
        return [(list(m.poly), *marker_ends(m), m.sign_lo) for m in markers], list(samples)

    v = scrambled_seifert(random.Random(2030), block_sum(T_2_5, TREFOIL))
    sig = signature_function(v)
    pb = sig.pullback(3)
    entries = [seifert_module._circle_arcs(f._delta) for f in (sig, pb)]
    assert sig._markers is entries[0][0] and pb._markers is entries[1][0]
    before = [fields(entry) for entry in entries]
    assert first_witness(sig, pb, lambda s0, s1: s0 == 0 and s1 != 0, 50)[1] is not None
    first_witness(pb, sig, lambda s0, s1: s0 != s1, 50)
    sig.pullback(2), pb.pullback(2)
    sig.jumps(), pb.arcs()
    after = [seifert_module._circle_arcs(f._delta) for f in (sig, pb)]
    assert all(a is b for a, b in zip(after, entries))
    assert [fields(entry) for entry in after] == before


DIGESTS = Path(__file__).resolve().parent / "data" / "alexander_digests.json"


def digest_cases():
    """Seifert matrices by name: three scrambled sums (``random_knot``) at
    each genus 0-8 and density 1 and 4, then every catalog matrix, each
    rebuilt so that its delta is computed afresh."""
    rng = random.Random(20261019)
    for genus in range(9):
        for density in (1, 4):
            for i in range(3):
                knot = families.random_knot(rng, genus, density=density)
                yield f"genus {genus} density {density} #{i}", knot.seifert()
    for entry in load_catalog():
        if entry.profile is not None and entry.profile.seifert is not None:
            yield f"catalog {entry.name}", entry.profile.seifert.entries


def record_alexander_digests():
    """Each case's printed delta and its signature function's jumps
    (approximate angle, height)."""
    digests = {}
    for name, rows in digest_cases():
        v = SeifertMatrix(rows)
        digests[name] = [str(alexander(v)), signature_function(v).jumps()]
    return digests


def test_alexander_matches_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    got = json.loads(json.dumps(record_alexander_digests()))
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record_alexander_digests(), indent=1) + "\n")
