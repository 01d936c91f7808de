"""Real-root isolation over the integers, against sympy.

Polynomials are seeded from chosen roots: dyadic rationals that are
bisection points of (-2, 2) (0, +-1, 3/2) next to irrational roots,
rationals that no bisection reaches, and repeated factors.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from _oracles import marker_ends, reference_isolate_roots, reference_refine, refine_below

from concordance.cyclotomic import trace_polynomial
from concordance.realroots import (
    RootMarker,
    compare_markers,
    exact_quotient,
    isolate_roots,
    poly_divmod,
    poly_eval,
    poly_gcd,
    squarefree_part,
)

X = sympy.Symbol("x")

# linear and quadratic factors, lowest degree first
FACTORS = [
    [0, 1],  # 0
    [-1, 1],  # 1
    [1, 1],  # -1
    [-3, 2],  # 3/2
    [1, 3],  # -1/3
    [-5, 7],  # 5/7
    [-2, 0, 1],  # +-sqrt(2)
    [-1, -1, 1],  # golden ratio and its conjugate
    [-3, 0, 1],  # +-sqrt(3), both inside only on wide intervals
    [1, 0, 1],  # no real root
    [-1, 0, 3],  # +-1/sqrt(3)
]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X, domain=sympy.ZZ)


def _seeded_polys(seed, count):
    r = random.Random(seed)
    out = []
    for _ in range(count):
        p = [r.choice((1, -1, 2, 5))]
        for _ in range(r.randint(1, 4)):
            f = r.choice(FACTORS)
            for _ in range(r.choice((1, 1, 2, 3))):
                p = _mul(p, f)
        out.append(p)
    return out


def _t_2_q_trace(q):
    """Trace polynomial of the Alexander polynomial of T(2, q)."""
    return trace_polynomial([(-1) ** k for k in range(q)])


def _q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _check_isolation(coeffs, lo, hi):
    markers = isolate_roots(coeffs, lo, hi)
    sqf = _sympy_poly(coeffs).sqf_part()
    assert len(markers) == sqf.count_roots(_q(lo), _q(hi))
    for m in markers:
        m_lo, m_hi = marker_ends(m)
        if m.sign_lo == 0:
            assert m_lo == m_hi
            assert lo < m_lo < hi
            assert sqf.eval(_q(m_lo)) == 0
        else:
            assert lo <= m_lo < m_hi <= hi
            assert sqf.eval(_q(m_lo)) != 0 and sqf.eval(_q(m_hi)) != 0
            assert sqf.count_roots(_q(m_lo), _q(m_hi)) == 1
    for m1, m2 in zip(markers, markers[1:]):
        m1_hi, m2_lo = marker_ends(m1)[1], marker_ends(m2)[0]
        assert m1_hi <= m2_lo
        assert m1.sign_lo or m1_hi < m2_lo
        assert m2.sign_lo or m1_hi < m2_lo
    return markers


@pytest.mark.parametrize(
    "lo, hi", [(Fraction(-2), Fraction(2)), (Fraction(-5, 2), Fraction(9, 4))]
)
def test_isolate_roots_finds_each_root_once(lo, hi):
    inside = 0
    for coeffs in _seeded_polys(1, 150):
        if poly_eval(coeffs, lo) and poly_eval(coeffs, hi):
            for m in _check_isolation(coeffs, lo, hi):
                # -1/3 and 5/7 are no bisection points: a marker of either
                # root holds it strictly inside, and compares equal to it
                for x in (Fraction(-1, 3), Fraction(5, 7)):
                    m_lo, m_hi = marker_ends(m)
                    if m.sign_lo and m_lo < x < m_hi and not poly_eval(coeffs, x):
                        assert m.compare(x.numerator, x.denominator) == 0
                        inside += 1
    assert inside


def _fields(m):
    return (*marker_ends(m), m.sign_lo)


@pytest.mark.parametrize(
    "lo, hi", [(Fraction(-2), Fraction(2)), (Fraction(-5, 2), Fraction(9, 4))]
)
def test_integer_bisection_matches_the_fraction_bisection(lo, hi):
    # the same markers and the same refinements, field by field, as the
    # bisection with a Fraction at every midpoint
    compared = 0
    for coeffs in _seeded_polys(2, 150) + [_t_2_q_trace(q) for q in (5, 9, 15)]:
        if not (poly_eval(coeffs, lo) and poly_eval(coeffs, hi)):
            continue
        markers = isolate_roots(coeffs, lo, hi)
        assert [_fields(m) for m in markers] == [_fields(m) for m in reference_isolate_roots(coeffs, lo, hi)]
        for m in markers:
            assert m.refine(m.hi_num - m.lo_num, m.den) is m  # no step, no new marker
            m_lo, m_hi = marker_ends(m)
            for width in (Fraction(1, 64), (m_hi - m_lo) / 2, Fraction(1, 10**12)):
                assert _fields(refine_below(m, width)) == _fields(reference_refine(m, width)), (coeffs, m, width)
                compared += 1
    assert compared > 500


def test_isolate_roots_keeps_bisecting_next_to_exact_roots():
    # 0, 1 and 3/2 are bisection points of (-2, 2); each sits next to an
    # irrational root, so both halves around it hold roots
    coeffs = _mul(_mul(FACTORS[0], FACTORS[3]), _mul(FACTORS[1], FACTORS[6]))
    coeffs = _mul(coeffs, FACTORS[7])
    markers = _check_isolation(coeffs, Fraction(-2), Fraction(2))
    assert [marker_ends(m)[0] for m in markers if m.sign_lo == 0] == [0, 1, Fraction(3, 2)]
    assert len(markers) == 7


def test_isolate_roots_on_t_2_9():
    # roots 2*cos(k*pi/9) for odd k < 9; k = 3 gives the bisection point 1
    markers = _check_isolation(_t_2_q_trace(9), Fraction(-2), Fraction(2))
    got = [m.float_value() for m in markers]
    expected = sorted(2 * float(sympy.cos(k * sympy.pi / 9)) for k in (1, 3, 5, 7))
    assert got == pytest.approx(expected, abs=1e-11)
    assert [None if m.sign_lo else marker_ends(m)[0] for m in markers] == [None, None, 1, None]


def _t_2_q_markers(q):
    """The markers of T(2, q)'s trace polynomial, ascending in x, with
    the angles (2j + 1)/(2q) of a full turn of their roots, descending."""
    markers = isolate_roots(_t_2_q_trace(q), Fraction(-2), Fraction(2))
    angles = sorted((Fraction(2 * j + 1, 2 * q) for j in range((q - 1) // 2)), reverse=True)
    assert len(markers) == len(angles)
    return list(zip(markers, angles))


@pytest.mark.parametrize(
    "q1, q2, refines",
    [(15, 17, True), (19, 21, True), (5, 15, False)],
)
def test_compare_markers_agrees_with_the_known_angles(monkeypatch, q1, q2, refines):
    # x = 2*cos(2*pi*angle); distinct angles (2j + 1)/(2q) with q <= 21
    # differ by far more than float error, so float cosines order them
    calls = []
    refine = RootMarker.refine

    def counting(self, wn, wd):
        calls.append((wn, wd))
        return refine(self, wn, wd)

    pairs = [(a, b) for a in _t_2_q_markers(q1) for b in _t_2_q_markers(q2)]
    monkeypatch.setattr(RootMarker, "refine", counting)
    shared = 0
    for (m1, a1), (m2, a2) in pairs:
        got = compare_markers(m1, m2, poly_gcd(m1.poly, m2.poly))
        if a1 == a2:
            expected = 0
            shared += 1
        else:
            x1, x2 = (math.cos(2 * math.pi * a) for a in (a1, a2))
            expected = (x1 > x2) - (x1 < x2)
        assert got == expected, (a1, a2)
    # T(2,15) and T(2,17) share no root, yet some of their isolating
    # intervals overlap and are refined apart; T(2,5)'s roots at 1/10
    # and 3/10 are roots of T(2,15) too, found without refining
    assert bool(calls) == refines
    assert shared == (2 if (q1, q2) == (5, 15) else 0)


def test_exact_quotient_divides_exactly_or_says_none():
    polys = _seeded_polys(4, 60)
    for a, b in zip(polys, polys[1:]):
        assert exact_quotient(_mul(a, b), b) == a
        assert exact_quotient(_mul(a, b), a) == b
    assert exact_quotient([1, 0, 1], [1, 1]) is None  # remainder 2
    assert exact_quotient([1, 2], [0, 2]) is None  # 2x + 1 over 2x
    assert exact_quotient([3, 6], [1, 2]) == [3]


def test_isolate_roots_rejects_root_endpoints():
    with pytest.raises(ValueError):
        isolate_roots([-1, 1], Fraction(1), Fraction(2))


def test_poly_divmod_is_a_pseudo_division():
    r = random.Random(2)
    for _ in range(300):
        den = [r.randint(-4, 4) for _ in range(r.randint(0, 4))]
        den.append(r.choice((1, -1, 2, -3, 6)))
        num = [r.randint(-9, 9) for _ in range(r.randint(1, 9))] + [r.randint(1, 9)]
        q, rem = poly_divmod(num, den)
        assert len(rem) < len(den)
        lhs = _mul(q, den) if q else []
        lhs = [a + b for a, b in zip(lhs + [0] * len(num), rem + [0] * len(num))]
        while lhs and lhs[-1] == 0:
            lhs.pop()
        assert len(lhs) == len(num)
        c = Fraction(lhs[-1], num[-1])
        assert c > 0 and c.denominator == 1
        assert lhs == [c * a for a in num]
        lead, power = abs(den[-1]), 1
        while lead > 1 and power < c:
            power *= lead
        assert power == c


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2], [0])


def test_poly_gcd_and_squarefree_part_match_sympy():
    polys = _seeded_polys(3, 120)
    for a, b in zip(polys, polys[1:]):
        a = [2 * c for c in _mul(a, FACTORS[7])]
        g = poly_gcd(a, b)
        expected = sympy.gcd(_sympy_poly(a), _sympy_poly(b)).all_coeffs()[::-1]
        assert g in (expected, [-c for c in expected])
        sf = squarefree_part(a)
        expected = _sympy_poly(a).sqf_part().all_coeffs()[::-1]
        assert sf in (expected, [-c for c in expected])
    assert poly_gcd([], []) == []
    assert poly_gcd([0, -4, -6], []) == [0, 4, 6]
