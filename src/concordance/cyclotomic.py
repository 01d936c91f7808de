"""Cyclotomic polynomials, the trace coordinate, certified cosines of
rational angles, and exact arithmetic in Z[zeta_b], zeta_b = exp(2*pi*i/b).

The library uses four things from here: the cyclotomic polynomials,
each a Moebius product of binomials x^d - 1, whose divisibility decides
where a signature function jumps and which ``intfactor`` expands without
factoring; the prime factors of an integer, Euler's phi and the primes;
the trace coordinate, in which the self-reciprocal t^n * g(t + 1/t) of
degree 2n is g of degree n, with values g(2*cos(theta)) on the unit
circle (``trace_polynomial`` and its inverse ``trace_lift``: ``seifert``
isolates circle roots in it and ``intfactor`` factors in it); and
``cos2pi_bounds``, the certified enclosure of 2*cos(2*pi*a/b) that
places a root of unity among isolated real roots, returned as the two
integer numerators of its ends over 2^prec.  The enclosure is integer
fixed point: pi by Machin's formula, the cosine by its Taylor series at
a 2^r-th of the angle and r doublings, each step with a proven error
bound, so it needs nothing beyond the standard library.  Each Phi_b is
built once per process and handed out as the same immutable tuple, so
no caller copies it; each enclosure is kept per process too, in an LRU
of ``COS_CACHE_SIZE`` (256) entries keyed by (a, b, prec), the
library's fourth cache, since every query at a/b asks the same
precisions again.
Signatures themselves are computed in ``seifert``, from Hermitian
matrices over the Gaussian integers Z[i], at rational points of the arcs.

``CycloInt`` and ``hermitian_signature`` are an independent second route
to the same signatures, kept as the oracle the tests compare against.
Elements are integer combinations of powers zeta_b^k with exponents
folded mod b, i.e. residues of Z[x]/(x^b - 1) under evaluation at
zeta_b.  The kernel of that evaluation is generated by the b-th
cyclotomic polynomial, so zero testing is exact polynomial divisibility
by Phi_b, again through ``exact_quotient`` (for prime b it collapses to
"all b coefficients equal").  The sign of a real element is read off the
sum of its terms' ``cos2pi_bounds`` enclosures at increasing precision;
it terminates because zero is excluded symbolically first, so no
floating-point tolerance ever decides anything.  The Hermitian
congruence recursion scales each Schur complement by the square of its
pivot, so entries grow doubly exponentially with the depth and the sign
ladder can run out of precision on forms of genus 4 and more.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .realroots import exact_quotient


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division
    by 2 and the odd numbers."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2 if d > 2 else 1
    if n > 1:
        out.append(n)
    return out


def totient(b: int) -> int:
    """Euler's phi: b times (1 - 1/p) over the primes p dividing b."""
    phi = b
    for p in prime_factors(b):
        phi -= phi // p
    return phi


def primes():
    """2, 3, 5, 7, ... without end: 2, then each odd n that is its only
    prime factor."""
    return itertools.chain([2], (n for n in itertools.count(3, 2) if prime_factors(n) == [n]))


@functools.lru_cache(maxsize=None)
def cyclotomic_coeffs(b: int) -> tuple[int, ...]:
    """Coefficients (low->high) of the b-th cyclotomic polynomial, kept
    per process as a tuple and handed out as is.

    Phi_b is the product of (x^d - 1)^mu(b/d) over the divisors d of b
    (Moebius inversion of x^b - 1 = prod Phi_d), and mu(b/d) is nonzero
    only when b/d is a product of distinct primes of b.  The binomials
    with mu = 1 are multiplied in, one pass each; those with mu = -1 are
    then divided out exactly, one pass each from the constant term up,
    and each quotient must reproduce the top coefficients of its
    dividend."""
    if b < 1:
        raise ValueError("b must be >= 1")
    ps = prime_factors(b)
    # mu(b/d) = (-1)^r for d = b over a product of r distinct primes of b
    up, down = [], []
    for r in range(len(ps) + 1):
        (down if r % 2 else up).extend(b // math.prod(s) for s in itertools.combinations(ps, r))
    poly = [1]
    for d in up:
        poly = list(map(operator.sub, [0] * d + poly, poly + [0] * d))
    for d in down:
        # q with (x^d - 1) * q = poly: poly_i = q_(i-d) - q_i
        n = len(poly) - d
        q = [-c for c in poly[:n]]
        for i in range(d, n):
            q[i] += q[i - d]
        if poly[n:] != ([0] * d + q)[n:]:
            raise ArithmeticError(f"x^{d} - 1 left a remainder in Phi_{b}")
        poly = q
    return tuple(poly)


def v_polys(n: int) -> list[list[int]]:
    """v_0, ..., v_n with v_j(t + 1/t) = t^j + t^-j, so that
    v_j(2*cos(theta)) = 2*cos(j*theta): v_0 = 2, v_1 = x and
    v_j = x*v_{j-1} - v_{j-2}."""
    basis: list[list[int]] = [[2], [0, 1]]
    while len(basis) <= n:
        prev, cur = basis[-2], basis[-1]
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        basis.append(nxt)
    return basis


def trace_polynomial(coeffs: list[int]) -> list[int]:
    """g with t^n * g(t + 1/t) = coeffs, a self-reciprocal polynomial of
    degree 2n nonzero at t^0: a(t) = c_0 + sum c_j (t^j + t^-j) in the
    balanced form gives g = c_0 + sum c_j v_j, with lc(g) = lc(coeffs)."""
    n = len(coeffs) // 2
    basis = v_polys(n)
    acc = [0] * (n + 1)
    acc[0] = coeffs[n]
    for j in range(1, n + 1):
        c = coeffs[n + j]
        if c:
            for i, bc in enumerate(basis[j]):
                acc[i] += c * bc
    return acc


def trace_lift(h: list[int]) -> list[int]:
    """t^n * h(t + 1/t) for h of degree n, the inverse of
    ``trace_polynomial``, by Horner in x = t + 1/t:
    T_j = T_{j+1} * (t^2 + 1) + h_j * t^(n-j) has degree 2(n - j)."""
    n = len(h) - 1
    acc = [h[n]]
    for j in range(n - 1, -1, -1):
        nxt = acc + [0, 0]
        for i, c in enumerate(acc):
            nxt[i + 2] += c
        nxt[n - j] += h[j]
        acc = nxt
    return acc


class CycloInt:
    """sum(c_k * zeta_b^k) with integer c_k; immutable after construction."""

    __slots__ = ("b", "_c")

    def __init__(self, b: int, coeffs=None):
        if b < 1:
            raise ValueError("b must be >= 1")
        self.b = b
        c: dict[int, int] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    k %= b
                    nv = c.get(k, 0) + v
                    if nv:
                        c[k] = nv
                    else:
                        c.pop(k, None)
        self._c = c

    @classmethod
    def zero(cls, b: int) -> "CycloInt":
        return cls(b)

    @classmethod
    def integer(cls, b: int, n: int) -> "CycloInt":
        return cls(b, {0: n})

    @classmethod
    def root_power(cls, b: int, k: int, c: int = 1) -> "CycloInt":
        return cls(b, {k: c})

    def _check(self, other: "CycloInt"):
        if self.b != other.b:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) + v
        return CycloInt(self.b, c)

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.b, {k: -v for k, v in self._c.items()})

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.b, {k: v * other for k, v in self._c.items()})
        self._check(other)
        c: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = (k1 + k2) % self.b
                c[k] = c.get(k, 0) + v1 * v2
        return CycloInt(self.b, c)

    def __rmul__(self, other):
        return self.__mul__(other)

    def mul_root(self, k: int) -> "CycloInt":
        """Multiply by zeta_b^k (exponent shift)."""
        return CycloInt(self.b, {(e + k) % self.b: v for e, v in self._c.items()})

    def conj(self) -> "CycloInt":
        return CycloInt(self.b, {(-e) % self.b: v for e, v in self._c.items()})

    def is_zero(self) -> bool:
        if not self._c:
            return True
        b = self.b
        if b == 1:
            return sum(self._c.values()) == 0
        dense = [0] * b
        for k, v in self._c.items():
            dense[k] = v
        return exact_quotient(dense, cyclotomic_coeffs(b)) is not None

    def is_real(self) -> bool:
        return (self - self.conj()).is_zero()

    def sign(self) -> int:
        """Sign of a real element, certified.  pre: is_real() and not is_zero().

        A real element equals its real part, half the sum of c_k times
        2*cos(2*pi*k/b), so the sum of the enclosures of its terms holds
        twice the value; their ends share the denominator 2^prec, so the
        sums of their numerators have the signs of the sums of the ends."""
        for prec in (64, 128, 256, 512, 1024, 2048, 4096, 8192):
            ends = [sorted(v * c for c in cos2pi_bounds(k, self.b, prec))
                    for k, v in self._c.items()]
            if sum(lo for lo, _ in ends) > 0:
                return 1
            if sum(hi for _, hi in ends) < 0:
                return -1
        raise ArithmeticError(
            "interval refinement failed to certify a sign; "
            "was the zero test skipped?"
        )

    def __eq__(self, other):
        if not isinstance(other, CycloInt):
            return NotImplemented
        return self.b == other.b and (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CycloInt is not hashable (non-canonical representation)")

    def __repr__(self):
        terms = ", ".join(f"{k}: {v}" for k, v in sorted(self._c.items()))
        return f"CycloInt({self.b}, {{{terms}}})"


def hermitian_signature(M: list[list[CycloInt]]) -> int:
    """Signature of a Hermitian matrix over Z[zeta_b], exactly.

    Congruence recursion: pick a nonzero real diagonal pivot (after a
    hyperbolic column/row operation if the whole diagonal vanishes), record
    its certified sign, and pass to the Schur complement scaled by pivot^2,
    which is again integral and congruent to the rest of the form.
    Sylvester's law of inertia keeps the count invariant.
    """
    n = len(M)
    if n == 0:
        return 0
    b = M[0][0].b
    M = [row[:] for row in M]
    piv = None
    for i in range(n):
        if not M[i][i].is_zero():
            piv = i
            break
    if piv is None:
        pair = None
        for i in range(n):
            for j in range(i + 1, n):
                if not M[i][j].is_zero():
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            return 0
        i, j = pair
        # e_i <- e_i + zeta^k e_j makes the (i,i) entry 2 Re(zeta^k M[i][j]),
        # nonzero for some k because M[i][j] != 0 and zeta is not real (b > 2)
        # or the entry is real and nonzero (b <= 2, k = 0 works).
        for k in range(b):
            t = M[i][j].mul_root(k)
            if not (t + t.conj()).is_zero():
                for p in range(n):
                    M[p][i] = M[p][i] + M[p][j].mul_root(k)
                for q in range(n):
                    M[i][q] = M[i][q] + M[j][q].mul_root(-k)
                break
        else:
            raise ArithmeticError("no hyperbolic pivot found")
        piv = i
    d = M[piv][piv]
    s = d.sign()
    rest = [r for r in range(n) if r != piv]
    # scale by d^2 > 0 so the complement stays integral without touching
    # the signature (scaling by d alone would flip signs for d < 0)
    schur = [
        [(M[r][q] * d - M[r][piv] * M[piv][q]) * d for q in rest]
        for r in rest
    ]
    return s + hermitian_signature(schur)


@functools.lru_cache(maxsize=16)
def _pi_fixed(bits: int) -> tuple[int, int]:
    """Integers lo <= pi * 2^bits <= hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).

    The k-th term of atan(1/n) * 2^bits is floor(2^bits / n^(2k+1)) //
    (2k+1), which is the floor of the exact term, since nested floors by
    integers are one floor.  So each of the K terms is off by less than
    1, and once the power reaches 0 the alternating tail is below the
    first omitted term, itself below 1: the sum is within K + 1."""

    def atan_inv(n: int) -> tuple[int, int]:
        total, power, k = 0, (1 << bits) // n, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= n * n
            k += 1
        return total, k + 1

    (a, err_a), (b, err_b) = atan_inv(5), atan_inv(239)
    pi, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
    return pi - err, pi + err


def _cos_fixed(x: int, bits: int) -> tuple[int, int]:
    """Integers lo <= cos(y) * 2^bits <= hi at y = x / 2^bits, 0 <= y <= pi.

    The series runs at z = y / 2^r in units of 2^-B, B = bits + 2r, with
    r >= 2, so z < 1.  Term k is t_k = 2^B z^(2k) / (2k)!, computed as
    T_k = floor(T_(k-1) u / 2^B / ((2k-1) 2k)) with u = floor(2^B z^2),
    one floor since the shift and the division nest.  As T_(k-1) <= 2^B,
    T_(k-1) u / 2^B is within 1 of T_(k-1) z^2, so e_k = t_k - T_k obeys
    0 <= e_k < e_(k-1) / 2 + 3/2 with e_0 = 0, hence e_k < 3.  The loop
    stops at the first T_K = 0, where t_K = e_K bounds the Lagrange
    remainder of the terms before it: the error is below 3K.  Then r
    doublings cos 2z = 2 cos^2 z - 1, rounded outward, lift the bounds to
    y; they keep the order because cos z >= 0 for z <= pi/2, and each
    about quadruples the width, which the 2r extra bits absorb."""
    r = math.isqrt(bits) // 2 + 1
    bits += 2 * r
    one = 1 << bits
    u = (x << r) ** 2 >> bits
    total, term, k = one, one, 0
    while term:
        k += 1
        term = (term * u >> bits) // ((2 * k - 1) * 2 * k)
        total += -term if k % 2 else term
    lo, hi = total - 3 * k, total + 3 * k
    for _ in range(r):
        lo = (2 * max(lo, 0) ** 2 >> bits) - one
        hi = -(-2 * hi * hi >> bits) - one
    return lo >> 2 * r, -(-hi >> 2 * r)


# (angle, precision) pairs kept by ``cos2pi_bounds``; a cable-obstruct run
# at seed 1 asks 16 distinct ones
COS_CACHE_SIZE = 256


@functools.lru_cache(maxsize=COS_CACHE_SIZE)
def cos2pi_bounds(numerator: int, denominator: int, prec: int) -> tuple[int, int]:
    """Integers lo, hi with lo/2^prec <= 2*cos(2*pi*numerator/denominator)
    <= hi/2^prec, for denominator > 0, and hi - lo <= 2; kept per process
    in an LRU of ``COS_CACHE_SIZE`` entries.

    q = numerator/denominator is folded into [0, 1/2], which leaves the
    cosine as is, so x = 2*pi*q lies in [0, pi], where cos falls and is
    1-Lipschitz.  With pi enclosed at w = prec + guard bits, x lies in
    [x_lo, x_hi] (units of 2^-w, floor and ceiling), so cos(x_lo) - (x_hi
    - x_lo) <= cos(x) <= cos(x_lo), and ``_cos_fixed`` bounds cos(x_lo).
    The ends are rounded outward to 2^-prec.  Machin's error is about
    3.7w units of 2^-w and the series' O(sqrt w), so the enclosure of cos
    at 2^-w is narrower than 16w, below 2^(guard - 1): after rounding,
    2*cos spans at most two units of 2^-prec."""
    a, b = min(numerator % denominator, -numerator % denominator), denominator
    guard = prec.bit_length() + 8
    bits = prec + guard
    pi_lo, pi_hi = _pi_fixed(bits)
    x_lo = 2 * pi_lo * a // b
    x_hi = -(-2 * pi_hi * a // b)
    lo, hi = _cos_fixed(x_lo, bits)
    lo -= x_hi - x_lo
    return lo >> guard - 1, -(-hi >> guard - 1)
