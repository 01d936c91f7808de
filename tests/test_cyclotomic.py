"""Exact cyclotomic arithmetic and Hermitian signatures, cross-checked
against numpy eigenvalues on random matrices."""

import itertools
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from mpmath.libmp import to_rational

from concordance.cyclotomic import (
    CycloInt,
    cos2pi_bounds,
    cyclotomic_coeffs,
    hermitian_signature,
    prime_factors,
    primes,
    totient,
)

KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_known_table():
    for b, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_coeffs(b) == coeffs


def test_cyclotomic_product_recovers_x_pow_b_minus_one():
    for b in (6, 12, 30):
        prod = [1]
        for d in range(1, b + 1):
            if b % d == 0:
                phi = cyclotomic_coeffs(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, c in enumerate(phi):
                        out[i + j] += a * c
                prod = out
        assert prod == [-1] + [0] * (b - 1) + [1]


def test_cyclotomic_polynomials_match_sympy_to_1500_and_at_2310():
    # Phi_b from a cold cache, each built by its own Moebius product; a prime
    # b against (x^b - 1)/(x - 1), whose sympy route costs most of the time
    x = sympy.Symbol("x")
    cyclotomic_coeffs.cache_clear()
    wrong = []
    for b in [*range(1, 1501), 2310]:
        if sympy.isprime(b):
            expected = [1] * b
        else:
            expected = [int(c) for c in reversed(sympy.cyclotomic_poly(b, x, polys=True).all_coeffs())]
        if list(cyclotomic_coeffs(b)) != expected:
            wrong.append(b)
    assert wrong == []


def test_prime_factors_and_totient_match_sympy():
    assert [b for b in range(1, 3000) if prime_factors(b) != sorted(sympy.primefactors(b))] == []
    assert [b for b in range(1, 3000) if totient(b) != sympy.totient(b)] == []
    assert list(itertools.islice(primes(), 430)) == list(sympy.primerange(2, 3000))


def test_basic_arithmetic_and_conjugation():
    z = CycloInt.root_power(5, 1)
    one = CycloInt.integer(5, 1)
    assert (one + z) * (one - z) == one - z * z
    assert z.conj() == CycloInt.root_power(5, 4)
    assert (z * z.conj()) == one
    assert (z - z).is_zero()


def test_zero_via_full_root_sum():
    # 1 + z + z^2 + ... + z^(b-1) = 0 for prime b
    for b in (3, 5, 7, 11):
        s = CycloInt(b, {k: 1 for k in range(b)})
        assert s.is_zero()
    # and for composite order via the cube roots inside order 6
    s = CycloInt(6, {0: 1, 2: 1, 4: 1})
    assert s.is_zero()
    assert not CycloInt(6, {0: 1, 2: 1}).is_zero()


def test_is_real_and_certified_sign():
    z = CycloInt.root_power(7, 1)
    c1 = z + z.conj()           # 2 cos(2 pi / 7) > 0
    c3 = z.mul_root(2) + z.mul_root(2).conj()  # 2 cos(6 pi / 7) < 0
    assert c1.is_real() and c3.is_real()
    assert c1.sign() == 1
    assert c3.sign() == -1
    assert not z.is_real()
    assert CycloInt.integer(9, -4).sign() == -1


def test_sign_of_small_real_combination():
    # 2 cos(2 pi/5) + 2 cos(4 pi/5) = -1: representation with many terms
    z = CycloInt.root_power(5, 1)
    v = z + z.conj() + z.mul_root(1) * 0 + (z * z) + (z * z).conj()
    assert v.is_real()
    assert v.sign() == -1


def test_hermitian_signature_diagonal_and_hyperbolic():
    b = 4
    diag = [
        [CycloInt.integer(b, d) if i == j else CycloInt.zero(b) for j in range(3)]
        for i, d in enumerate([3, -2, 5])
    ]
    assert hermitian_signature(diag) == 1
    zero2 = [[CycloInt.zero(b)] * 2 for _ in range(2)]
    assert hermitian_signature(zero2) == 0
    hyp = [
        [CycloInt.zero(2), CycloInt.integer(2, 1)],
        [CycloInt.integer(2, 1), CycloInt.zero(2)],
    ]
    assert hermitian_signature(hyp) == 0
    z = CycloInt.root_power(8, 1)
    hyp2 = [[CycloInt.zero(8), z], [z.conj(), CycloInt.zero(8)]]
    assert hermitian_signature(hyp2) == 0
    assert hermitian_signature([]) == 0


def _embed(m, b):
    om = np.exp(2j * np.pi / b)
    out = np.zeros((len(m), len(m)), dtype=complex)
    for i, row in enumerate(m):
        for j, e in enumerate(row):
            out[i, j] = sum(c * om**k for k, c in e._c.items())
    return out


def test_hermitian_signature_matches_numpy_on_random_matrices():
    rng = random.Random(20260818)
    checked = 0
    while checked < 40:
        b = rng.choice([2, 3, 4, 5, 7, 8, 12])
        n = rng.randint(1, 4)
        a = [
            [
                CycloInt(b, {rng.randrange(b): rng.randint(-2, 2) for _ in range(2)})
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = [
            [
                a[i][j] + a[j][i].conj()
                + (CycloInt.integer(b, rng.randint(-3, 3)) if i == j else CycloInt.zero(b))
                for j in range(n)
            ]
            for i in range(n)
        ]
        # keep diagonal real: a[i][i] + conj already is; the added int too
        eigs = np.linalg.eigvalsh(_embed(m, b))
        if min(abs(e) for e in eigs) < 1e-8:
            continue
        expected = int(sum(1 for e in eigs if e > 0) - sum(1 for e in eigs if e < 0))
        assert hermitian_signature(m) == expected
        checked += 1


def test_cos2pi_bounds_encloses_known_values():
    lo, hi = cos2pi_bounds(1, 6, 64)
    assert lo <= 1 <= hi
    lo, hi = cos2pi_bounds(1, 4, 64)
    assert lo <= 0 <= hi
    lo64 = cos2pi_bounds(1, 7, 64)
    lo256 = cos2pi_bounds(1, 7, 256)
    assert lo256[1] - lo256[0] < lo64[1] - lo64[0]
    assert lo64[0] < lo256[0] and lo256[1] < lo64[1]


def _mpmath_2cos(a, b, prec):
    """mpmath's interval enclosure of 2*cos(2*pi*a/b) at prec + 64 bits,
    as exact rationals."""
    iv = mpmath.ctx_iv.MPIntervalContext()
    iv.prec = prec + 64
    ends = (2 * iv.cos(2 * iv.pi * iv.mpf(a) / b))._mpi_
    return tuple(Fraction(*map(int, to_rational(end))) for end in ends)


@pytest.mark.parametrize("prec", [64, 128, 256, 1024, 4096, 16384])
def test_cos2pi_bounds_contains_mpmath_enclosure(prec):
    rng = random.Random(prec)
    denominators = [rng.randint(1, 10 ** rng.randint(1, 30)) for _ in range(4)]
    if prec <= 1024:
        denominators += [rng.randint(1, 10 ** rng.randint(1, 30)) for _ in range(60)]
    denominators.append(rng.randrange(10**3999, 10**4000))
    for b in denominators:
        a = rng.randrange(-b, 2 * b)
        lo, hi = cos2pi_bounds(a, b, prec)
        m_lo, m_hi = _mpmath_2cos(a, b, prec)
        assert lo <= m_lo and m_hi <= hi, (a, b)
        assert hi - lo <= Fraction(2, 2**prec)


@pytest.mark.parametrize("prec", [64, 1024, 16384])
def test_cos2pi_bounds_at_rational_cosines(prec):
    # 2cos(2 pi q) is an integer at these q; at q = 1/2 the upper end of
    # the enclosure of 2 pi q passes pi
    for q, value in ((0, 2), (Fraction(1, 6), 1), (Fraction(1, 4), 0),
                     (Fraction(1, 3), -1), (Fraction(1, 2), -2)):
        q = Fraction(q)
        for a in (q.numerator, -q.numerator, q.numerator + 3 * q.denominator):
            lo, hi = cos2pi_bounds(a, q.denominator, prec)
            assert lo <= value <= hi
            assert hi - lo <= Fraction(2, 2**prec)
            assert lo.denominator & (lo.denominator - 1) == 0  # dyadic


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycloInt.integer(3, 1) + CycloInt.integer(4, 1)
    with pytest.raises(TypeError):
        hash(CycloInt.integer(3, 1))
