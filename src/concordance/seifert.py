"""Seifert matrices and the invariants read off them: the Alexander
polynomial, Levine-Tristram signatures at exact roots of unity, and the
whole signature step function on the unit circle, with its pullback
along omega -> omega^p and the search for roots of unity where two step
functions differ.

Everything here is exact.  With A = V + V^T and S = V - V^T, for V of
size n = 2g, det(V - t*V^T) = ((1 + t)/2)^n * f(w) with
f(w) = det(S + w*A) and w = (1 - t)/(1 + t).  f is even, so
f(w) = r_0 + r_1*w^2 + ... + r_g*w^(2g), and r_0 = det S = Pf(S)^2.
One integer determinant, D = f(W) at a power of two W chosen from the
entries, by fraction-free Bareiss elimination (the one determinant
routine of the library), holds each r_j as a balanced base-W^2 digit:
r_0 = 1 is the constructor's check |det(V - V^T)| = 1, and the others
give delta, kept on the matrix: the low half of the palindrome t^g*delta
is g + 1 dot products of the digits with the rows of an integer table,
cached per genus.  That lift is unitriangular over Z, so the half is
divisible by 4^g just when delta is integral, and the mirrored list is
centred and sums to delta(1) = r_0: no balanced_alexander pass, only the
sign and the |delta(1)| = 1 check.  A genus above MAX_GENUS = 32 is
refused before any arithmetic.  For omega = exp(i*theta) the form
(1 - omega)V + (1 - conj(omega))V^T is 2*sin(theta/2)^2 * (A - i*u*S)
with u = cot(theta/2), so sigma(omega) is the signature of the 2g x 2g
Hermitian matrix A - i*u*S itself.  The signature is constant on each
arc between unit-circle roots of the Alexander polynomial, and every
arc holds points with rational u = r/s, where s*A - i*r*S has entries
in the Gaussian integers and its signature comes from exact congruence
elimination over Z[i], kept as two integer matrices.  Jump points are
detected by cyclotomic divisibility of the Alexander polynomial; the
arcs between jumps are isolated with Sturm sequences after the
substitution x = 2*cos(theta), and a sample lies in its arc by exact
comparison of x(u) = 2*(u^2 - 1)/(u^2 + 1) with the isolating
intervals, each rational as two ints.  Floats are for display only: the
approximate angles that ``jumps``, ``arcs`` and ``repr`` print.  No
floating-point value decides anything, and the witness search places
each angle a/b by exact comparison of cosines, in integers: its cosine
enclosure from ``cyclotomic.cos2pi_bounds`` is two integer numerators
over 2^prec, and each marker compares them with its own integer ends by
cross-multiplication.  A pullback reads sigma at v_p(x(u)) as an
integer over d^p, by Horner on the homogenized v_p.
Each integer buffer has one owner: a ``SeifertMatrix`` keeps A and S as
read-only tuples, and the kernels ``_int_det`` and
``_hermitian_signature`` eliminate in place on rows their caller built.
The isolated roots and arc samples of each polynomial are kept per
process, in an LRU keyed by delta itself.  Signature values are never
cached: a knot and its mirror share delta and have opposite signatures.

>>> V = SeifertMatrix([[-1, 1], [0, -1]])   # right-handed trefoil
>>> str(alexander(V))
'1*t^1 - 1 + 1*t^-1'
>>> levine_tristram(V, RootOfUnity(1, 2))
-2
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from collections.abc import Callable, Sequence

from .cyclotomic import cos2pi_bounds, cyclotomic_coeffs, primes, totient, trace_lift, trace_polynomial, v_polys
from .laurent import CACHE_SIZE, LaurentPoly, Record, all_int, all_int_rows, balanced_digits, is_int
from .realroots import RootMarker, compare_markers, exact_quotient, isolate_roots, poly_gcd

__all__ = [
    "SeifertMatrix", "RootOfUnity", "SignatureFunction", "OmegaIsOne",
    "SingularAtOmega", "alexander", "balanced_alexander", "levine_tristram",
    "signature_function", "block_sum", "mirror",
]


# a dense genus-32 matrix takes seconds to build, growing about as g^5
MAX_GENUS = 32


class OmegaIsOne(ValueError):
    """Signature evaluation requested at omega = 1."""


class SingularAtOmega(ValueError):
    """omega is a unit-circle root of the Alexander polynomial, where the
    form degenerates and the signature function may jump."""


class SeifertMatrix:
    """Square integer matrix V with |det(V - V^T)| = 1; A, S and delta are
    kept read-only, checked and computed by one determinant at construction."""

    __slots__ = ("entries", "name", "_delta", "_A", "_S")

    def __init__(self, entries: Sequence[Sequence[int]], name: str | None = None):
        rows = tuple(map(tuple, entries))
        n = len(rows)
        if n > 2 * MAX_GENUS:
            raise ValueError(f"Seifert matrix of size {n} is above 2 * MAX_GENUS = {2 * MAX_GENUS}")
        # the rows rule accepts; the row loop decides anything else, in order
        if {*map(len, rows)} - {n} or not all_int_rows(rows):
            for row in rows:
                if len(row) != n:
                    raise ValueError("Seifert matrix must be square")
                if not all_int(row):
                    raise TypeError("Seifert matrix entries must be integers")
        cols = [*zip(*rows)]
        self._A = tuple([tuple(map(operator.add, row, col)) for row, col in zip(rows, cols)])
        self._S = tuple([tuple(map(operator.sub, row, col)) for row, col in zip(rows, cols)])
        self._delta = _balanced_alexander(self)
        self.entries = rows
        self.name = name

    @property
    def delta(self) -> LaurentPoly:
        """The Alexander polynomial (see :func:`alexander`), computed
        with the det(V - V^T) check when the matrix is built."""
        return self._delta

    @property
    def size(self) -> int:
        return len(self.entries)

    def __repr__(self):
        label = f", name={self.name!r}" if self.name else ""
        return f"SeifertMatrix({[list(r) for r in self.entries]}{label})"


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant, fraction-free Bareiss elimination, in
    place: ``rows`` is overwritten, so its one caller, the constructor's
    ``_balanced_alexander``, passes rows it built.  The column below a
    pivot is never read again and is left as it is."""
    n = len(rows)
    sign = prev = 1
    for k in range(n - 1):
        top = rows[k]
        p = top[k]
        if not p:
            for r in range(k + 1, n):
                if rows[r][k]:
                    top, rows[r] = rows[r], top
                    rows[k], p, sign = top, top[k], -sign
                    break
            else:
                return 0
        cols = range(k + 1, n)
        for row in rows[k + 1:]:
            a = row[k]
            for j in cols:
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return sign * rows[-1][-1] if n else 1


def block_sum(v1: SeifertMatrix, v2: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum; the Seifert matrix of a connected sum."""
    n1, n2 = v1.size, v2.size
    rows = [list(r) + [0] * n2 for r in v1.entries]
    rows += [[0] * n1 + list(r) for r in v2.entries]
    return SeifertMatrix(rows)


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix of the mirror image: -V^T."""
    n = v.size
    return SeifertMatrix([[-v.entries[j][i] for j in range(n)] for i in range(n)])


class RootOfUnity(Record):
    """omega = exp(2*pi*i*numerator/denominator), stored reduced."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if not (is_int(self.numerator) and is_int(self.denominator)):
            raise TypeError(
                f"numerator and denominator must be ints, got "
                f"{self.numerator!r} and {self.denominator!r}"
            )
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        a = self.numerator % self.denominator
        g = math.gcd(a, self.denominator)
        object.__setattr__(self, "numerator", a // g)
        object.__setattr__(self, "denominator", self.denominator // g)

    @property
    def is_one(self) -> bool:
        return self.numerator == 0

    def __str__(self):
        return f"e^(2*pi*i*{self.numerator}/{self.denominator})"


def alexander(v: SeifertMatrix) -> LaurentPoly:
    """det(V - t*V^T) in balanced normal form: exponents symmetric about 0,
    positive leading coefficient, reciprocal(delta) equal to delta, and
    |delta(1)| = 1.  Computed when the matrix is built; this reads it."""
    return v.delta


def _balanced_alexander(v: SeifertMatrix) -> LaurentPoly:
    """det(V - t*V^T), balanced, from D = f(W) = det(S + W*A) at W = 2^B
    (f and r_j as in the module docstring), for the constructor once it
    has set A and S; a ValueError unless r_0 = 1, an odd size (det 0)
    refused first.  By Cauchy's bound |r_j| <= max |f(w)| over |w| = 1,
    and there, by Hadamard's inequality, |f(w)| <= prod_i ||s_i + w*a_i||
    over the rows of S and A, with ||s_i + w*a_i||^2 <= h_i = ||s_i||^2 +
    ||a_i||^2 + 2|<s_i, a_i>|.  So |r_j| <= sqrt(h), h = prod_i h_i, and
    W^4 > 4h makes each r_j a digit of D in base W^2, in [-W^2/2, W^2/2).
    In x = t + 1/t, w^2 = (x - 2)/(x + 2), so t^-g * delta(t) is
    Q(x) = 4^-g * sum_j r_j * (x - 2)^j * (x + 2)^(g - j), lifted back to
    t: a palindrome, so its low half, r dotted with the rows of
    ``_lift_rows(g)``, is all of it.  The lift is unitriangular over Z
    (coefficient i is h_(g-i) plus multiples of h_k, k > g - i), so the
    half is divisible by 4^g just when Q is integral.  It sums to
    delta(1) = Q(2) = r_0 and ``from_coeffs`` trims it about t^0, so no
    ``balanced_alexander`` pass is needed; the sign and |delta(1)| = 1
    are still checked, with that function's message."""
    A, S = v._A, v._S
    g, odd = divmod(len(S), 2)
    if odd:
        raise ValueError("|det(V - V^T)| must be 1")
    mul = operator.mul
    h = 1
    for rs, ra in zip(S, A):
        h *= sum(map(mul, rs, rs)) + sum(map(mul, ra, ra)) + 2 * abs(sum(map(mul, rs, ra)))
    B = (h.bit_length() + 5) // 4  # the least B with 2^(4B) > 4h
    D = _int_det([[s + (a << B) for s, a in zip(rs, ra)] for rs, ra in zip(S, A)])
    r = balanced_digits(D, 2 * B, g + 1)
    if r[0] != 1:
        raise ValueError("|det(V - V^T)| must be 1")
    half = [sum(map(mul, r, row)) for row in _lift_rows(g)]
    if any(a & ((1 << 2 * g) - 1) for a in half):
        raise ArithmeticError("trace polynomial is not integral")
    coeffs = [a >> 2 * g for a in half]
    coeffs += coeffs[-2::-1]
    at_one = sum(coeffs)
    if abs(at_one) != 1:
        raise ValueError(f"|delta(1)| = {abs(at_one)}, not 1")
    if next(filter(None, coeffs)) < 0:
        coeffs = [-a for a in coeffs]
    return LaurentPoly.from_coeffs(coeffs, -g)


@functools.lru_cache(maxsize=None)
def _lift_rows(g: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds coefficient i of trace_lift((x - 2)^j * (x + 2)^(g - j))
    for j = 0..g: a constant, kept by ``clear_caches`` as Phi_b is."""
    cols = []
    for j in range(g + 1):
        p = [1]
        for root in [2] * j + [-2] * (g - j):
            p = [b - root * a for a, b in zip(p + [0], [0] + p)]
        cols.append(trace_lift(p)[: g + 1])
    return tuple(zip(*cols))


def balanced_alexander(delta: LaurentPoly) -> LaurentPoly:
    """The balanced normal form of an Alexander polynomial, given up to
    +-t^g: exponents symmetric about 0 and a positive leading coefficient.

    Raises ValueError unless delta is one: |delta(1)| = 1, even span and
    delta(t^-1) = delta(t) once balanced.

    >>> str(balanced_alexander(LaurentPoly.parse("-t^3 + t^2 - t^1")))
    '1*t^1 - 1 + 1*t^-1'
    """
    at_one = sum(delta.coeffs)  # delta(1), the coefficient sum
    if abs(at_one) != 1:
        raise ValueError(f"|delta(1)| = {abs(at_one)}, not 1")
    norm = delta.associate_normal()
    d = norm.high()
    if d % 2:
        raise ValueError(f"its span {d} is odd")
    bal = norm.shift(-(d // 2))
    if bal.reciprocal() != bal:
        raise ValueError("it is not symmetric")
    return bal


def _cyclotomic_divides(delta: LaurentPoly, b: int) -> bool:
    """Does Phi_b divide delta?  Phi_b has degree phi(b) >= sqrt(b/2), so
    it cannot divide a nonzero polynomial of lower degree d: b > 2*d^2
    is ruled out before factoring b, and the test phi(b) > d skips
    building Phi_b for all but small b."""
    d = delta.high() - delta.low()
    if b > 2 * d * d or totient(b) > d:
        return False
    return exact_quotient(delta.associate_normal().coeffs, cyclotomic_coeffs(b)) is not None


def _hermitian_signature(re: list[list[int]], im: list[list[int]]) -> tuple[int, int]:
    """(signature, rank) of the Hermitian matrix re + i*im over Z[i], re
    symmetric and im skew, by congruence on the two integer matrices.

    Fraction-free LDL* elimination: after each pivot the trailing block is
    the Schur complement scaled by the pivot minor (Bareiss), so every
    entry is a minor in Z[i] and each division is exact, by the previous
    pivot, a leading principal minor of a Hermitian matrix and so a real
    integer.  The sign of each LDL* pivot is the sign of d * prev.
    Symmetric swaps and, when the trailing diagonal vanishes, the step
    e_p <- e_p + e_j (new diagonal 2*Re h_pj) or, when Re h_pj = 0,
    e_p <- e_p + i*e_j (new diagonal -2*Im h_pj) are unimodular
    congruences of the trailing block over Z[i], which commute with
    taking the Schur complement, so the divisions stay exact after them.
    In place, as ``_int_det``: each caller passes rows it built."""
    n = len(re)
    sig, prev = 0, 1
    for k in range(n):
        p = next((i for i in range(k, n) if re[i][i]), None)
        if p is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if re[i][j] or im[i][j]),
                None,
            )
            if pair is None:
                return sig, k  # the trailing block is zero
            p, j = pair
            # e_p <- e_p + w*e_j, w = wr + i*wi = 1 or i: row p += conj(w)
            # times row j, then column p += w times column j
            wr, wi = (1, 0) if re[p][j] else (0, 1)
            re_p, im_p, re_j, im_j = re[p], im[p], re[j], im[j]
            for c in range(k, n):
                re_p[c] += wr * re_j[c] + wi * im_j[c]
                im_p[c] += wr * im_j[c] - wi * re_j[c]
            for r in range(k, n):
                x, y = re[r][j], im[r][j]
                re[r][p] += wr * x - wi * y
                im[r][p] += wr * y + wi * x
        if p != k:
            re[k], re[p] = re[p], re[k]
            im[k], im[p] = im[p], im[k]
            for row in re[k:] + im[k:]:
                row[k], row[p] = row[p], row[k]
        d = re[k][k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        re_k, im_k = re[k], im[k]
        for i in range(k + 1, n):
            re_i, im_i = re[i], im[i]
            a, b = re_i[k], im_i[k]  # h_ik = conj(h_ki)
            for j in range(i, n):
                c, e = re_k[j], im_k[j]
                re_i[j] = re[j][i] = (d * re_i[j] - a * c + b * e) // prev
                y = (d * im_i[j] - a * e - b * c) // prev
                im_i[j], im[j][i] = y, -y
        prev = d
    return sig, n


def _ratio(n: int, d: int) -> str:
    """n/d (d > 0) in lowest terms, printed as a Fraction prints."""
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}" if d != g else str(n // g)


def _signature_at(A: Sequence[Sequence[int]], S: Sequence[Sequence[int]], r: int, s: int) -> int:
    """sigma(omega) at the omega with cot(theta/2) = u = r/s (s > 0),
    where the form (1 - omega)V + (1 - conj(omega))V^T is a positive
    multiple of the Hermitian A - i*u*S; scaled by s, that is
    s*A - i*r*S, and sigma(omega) is its signature.  It is even because
    the signature has the parity of the rank, which must be the full 2g.
    The kernel overwrites the scaled rows built here; A and S are read."""
    sig, rank = _hermitian_signature(
        [[s * a for a in row] for row in A], [[-r * c for c in row] for row in S]
    )
    if rank != len(A):
        raise ArithmeticError(f"the form is singular at the sample point u = {_ratio(r, s)}")
    return sig


def _arc_sample(markers: list[RootMarker], idx: int) -> tuple[int, int]:
    """A rational u = r/s in lowest terms (s > 0) whose angle lies inside
    arc idx: between marker idx-1 and marker idx (angle-ascending, so
    x-descending).  The last arc holds omega = -1, which is u = 0;
    elsewhere u is the first dyadic rational with x(u) strictly inside
    the gap (a/ad, b/bd) between the two isolating intervals, checked
    exactly."""
    if idx == len(markers):
        return 0, 1
    lower = markers[idx]
    upper = markers[idx - 1] if idx > 0 else None
    # an exact marker has lo = hi = its root, so the gap above lower's
    # interval and below upper's (or 2) is root-free either way
    b, bd = (2, 1) if upper is None else (upper.lo_num, upper.den)
    while lower.hi_num * bd >= b * lower.den:
        lower = lower.refine(lower.hi_num - lower.lo_num, 2 * lower.den)
        if upper is not None:
            upper = upper.refine(upper.hi_num - b, 2 * bd)
            b, bd = upper.lo_num, upper.den
    a, ad = lower.hi_num, lower.den
    # x(u) = 2 - 4/(u^2 + 1) increases with u >= 0: a < x(u) < b exactly
    # when (2 + a)/(2 - a) < u^2 < (2 + b)/(2 - b), over ad and bd
    s = 1
    while True:
        r = math.isqrt((2 * ad + a) * s * s // (2 * ad - a)) + 1
        if upper is None or (2 * bd - b) * r * r < (2 * bd + b) * s * s:
            break
        s *= 2
    # x(u) = n/m with n = 2(r^2 - s^2), m = r^2 + s^2
    n, m = 2 * (r * r - s * s), r * r + s * s
    if not (a * m < n * ad and n * bd < b * m):
        raise ArithmeticError(f"sample u = {_ratio(r, s)} fell outside its arc")
    g = math.gcd(r, s)
    return r // g, s // g


def _circle_markers(g_coeffs: list) -> list[RootMarker]:
    """Roots of g in (-2, 2), that is the unit-circle roots of delta in
    the upper half, ascending in angle."""
    markers = isolate_roots(g_coeffs, -2, 2)
    markers.reverse()  # descending x = ascending angle
    return markers


@functools.lru_cache(maxsize=CACHE_SIZE)
def _circle_arcs(delta: LaurentPoly) -> tuple[tuple[RootMarker, ...], tuple[tuple[int, int], ...]]:
    """The circle roots of delta (``_circle_markers``) and one sample
    u = r/s per arc (``_arc_sample``), once per process: both depend on delta
    alone, while a knot and its mirror share delta but not signatures."""
    markers = _circle_markers(trace_polynomial(delta.associate_normal().coeffs))
    return tuple(markers), tuple(_arc_sample(markers, i) for i in range(len(markers) + 1))


def levine_tristram(v: SeifertMatrix, omega: RootOfUnity) -> int:
    """Signature of (1 - omega)V + (1 - conj(omega))V^T, exactly.

    Raises OmegaIsOne at omega = 1 and SingularAtOmega when omega is a
    root of the Alexander polynomial (detected by exact divisibility by
    the cyclotomic polynomial of order denominator(omega)).  Otherwise
    the certified arc of omega is located among the isolated roots and
    the signature is taken at a rational sample u of that arc."""
    if not isinstance(omega, RootOfUnity):
        raise TypeError(f"omega must be a RootOfUnity, got {omega!r}")
    if omega.is_one:
        raise OmegaIsOne("signature is undefined at omega = 1")
    delta = v.delta
    if _cyclotomic_divides(delta, omega.denominator):
        raise SingularAtOmega(
            f"omega = {omega} is a root of the Alexander polynomial"
        )
    markers, samples = _circle_arcs(delta)
    return _signature_at(v._A, v._S, *samples[_arc_index(markers, omega.numerator, omega.denominator)])


def _markers_above(markers: Sequence[RootMarker], lo: int, hi: int, d: int) -> int | None:
    """The number of markers whose root exceeds hi/d, or None when some
    root lies in [lo/d, hi/d] (d > 0).

    pre: the markers' roots descend, as a step function's do (they
    ascend in angle), so the first root not above hi/d decides: it lies
    in [lo/d, hi/d], or it and every later root lie below lo/d."""
    for count, m in enumerate(markers):
        if m.compare(hi, d) <= 0:
            return None if m.compare(lo, d) >= 0 else count
    return len(markers)


def _arc_index(markers: Sequence[RootMarker], a: int, b: int) -> int:
    """Index of the arc that holds the angle a/b in lowest terms, 0 <= a
    < b, which must not be a jump angle: the number of markers below a/b
    folded into [0, 1/2], since conjugation leaves the signature
    unchanged.  In x = 2cos(2*pi*angle) the order reverses, so these are
    the roots above an enclosure of 2cos(2*pi*a/b), whose precision
    doubles from 64 bits until no root lies in it, up to max(16384, 4 *
    bits of b): a larger denominator can put a/b closer to a jump, and a
    jump a/b fails fast."""
    a = min(a, b - a)
    prec, limit = 64, max(16384, 4 * b.bit_length())
    while prec <= limit:
        count = _markers_above(markers, *cos2pi_bounds(a, b, prec), 1 << prec)
        if count is not None:
            return count
        prec *= 2
    raise ArithmeticError("could not separate jump angle from sample angle")


class SignatureFunction:
    """The Levine-Tristram signature as a step function on the circle.

    Piecewise constant with even values, symmetric under conjugation,
    jumping only at unit-circle roots of the Alexander polynomial; the
    value at omega = 1 is 0.  Angles are fractions of a full turn.
    Raises ValueError unless |delta(1)| = 1, which ``first_witness``
    relies on.
    """

    def __init__(self, delta: LaurentPoly, value_at: Callable[[int, int], int]):
        at_one = sum(delta.coeffs)
        if abs(at_one) != 1:
            raise ValueError(f"|delta(1)| = {abs(at_one)}, not 1")
        # delta is the balanced Alexander polynomial; its circle roots
        # (markers) ascend in angle (descend in x = 2 cos 2*pi*angle), and
        # values[i] = value_at(r, s) at the rational sample u = r/s of the
        # arc between marker i-1 and i
        markers, samples = _circle_arcs(delta)
        values = tuple(value_at(r, s) for r, s in samples)
        if values[0] != 0:
            raise ArithmeticError("the arc at omega = 1 must carry signature 0")
        if any(val % 2 for val in values):
            raise ArithmeticError("signature values must be even")
        self._delta = delta
        self._markers = markers
        self._values = values

    def is_jump(self, q) -> bool:
        """Is exp(2*pi*i*q) a root of the Alexander polynomial?  Never
        at q = 0, as |delta(1)| = 1."""
        return _cyclotomic_divides(self._delta, _angle(q)[1])

    def evaluate(self, q) -> int:
        """Value at omega = exp(2*pi*i*q) for exact rational q.

        Raises SingularAtOmega at jump points (the step function has no
        value there).  Angle 0 lies on arc 0, whose value is 0."""
        a, b = _angle(q)
        if _cyclotomic_divides(self._delta, b):
            raise SingularAtOmega(f"signature function jumps at angle {a}/{b}")
        return self._values[_arc_index(self._markers, a, b)]

    def pullback(self, p: int) -> "SignatureFunction":
        """The step function omega -> sigma(omega^p), for an integer p >= 1.

        Its jump angles are the p-th roots of the jump angles of sigma, so
        the arcs are isolated from delta(t^p) and each new arc is
        sampled through sigma: a rational sample x = 2*cos(theta) of a new
        arc maps to the rational point 2*cos(p*theta) = v_p(x), which
        avoids the jumps of sigma."""
        if not is_int(p) or p < 1:
            raise ValueError("cable parameter p must be a positive integer")
        delta = self._delta.substitute_power(p)
        if self.is_identically_zero():
            # so is the pullback; v_p alone would cost O(p^2) integers
            return SignatureFunction(delta, lambda r, s: 0)
        v_p = v_polys(p)[p]

        def value_at(r: int, s: int) -> int:
            # x(u) = n/d with n = 2(r^2 - s^2), d = r^2 + s^2 at u = r/s, and
            # v_p(x) = acc/d^p by Horner on the homogenized v_p (degree p)
            r2, s2 = r * r, s * s
            n, d = 2 * (r2 - s2), r2 + s2
            den = d**p
            acc, scale = 0, 1
            for c in reversed(v_p):
                acc = acc * n + c * scale
                scale *= d
            count = _markers_above(self._markers, acc, acc, den)
            if count is None:
                raise SingularAtOmega(f"signature function jumps at x = {_ratio(acc, den)}")
            return self._values[count]

        return SignatureFunction(delta, value_at)

    def jumps(self) -> list[tuple[float, int]]:
        """(approximate angle, jump height) per jump in (0, 1/2)."""
        return [
            (_marker_angle_float(m), self._values[i + 1] - self._values[i])
            for i, m in enumerate(self._markers)
        ]

    def arcs(self) -> list[tuple[float, float, int]]:
        """Full-circle arc list as (angle_lo, angle_hi, value) with
        approximate endpoints; exact evaluation goes through evaluate()."""
        angles = [_marker_angle_float(m) for m in self._markers]
        cuts = [0.0] + angles + [1.0 - a for a in reversed(angles)] + [1.0]
        vals = self._values + self._values[-2::-1]
        return [(cuts[i], cuts[i + 1], vals[i]) for i in range(len(vals))]

    def is_identically_zero(self) -> bool:
        return all(v == 0 for v in self._values)

    def __repr__(self):
        parts = ", ".join(
            f"({lo:.6f}, {hi:.6f}): {v}" for lo, hi, v in self.arcs()
        )
        return f"SignatureFunction({parts})"


def _angle(q) -> tuple[int, int]:
    """The angle of exp(2*pi*i*q) as a/b in lowest terms, 0 <= a < b, for
    an int, a Fraction (whose module this one does not load) or a
    RootOfUnity q; a float or a bool is no exact angle."""
    if isinstance(q, RootOfUnity):
        return q.numerator, q.denominator
    fractions = sys.modules.get("fractions")
    if not (is_int(q) or fractions and isinstance(q, fractions.Fraction)):
        raise TypeError(f"an angle must be an int, a Fraction or a RootOfUnity, got {q!r}")
    return q.numerator % q.denominator, q.denominator


def _marker_angle_float(m: RootMarker) -> float:
    return math.acos(max(-1.0, min(1.0, m.float_value() / 2.0))) / (2 * math.pi)


def signature_function(v: SeifertMatrix) -> SignatureFunction:
    """The full signature step function of a Seifert matrix.

    Roots of the Alexander polynomial on the circle are isolated exactly
    via Sturm sequences in x = 2cos(theta); each arc between consecutive
    roots gets one rational signature at a certified interior sample."""
    return SignatureFunction(v.delta, lambda r, s: _signature_at(v._A, v._S, r, s))


def _sub_arcs(sig0: SignatureFunction, sig1: SignatureFunction) -> list[tuple]:
    """The sub-arcs of (0, 1/2] cut out by the jumps of either function,
    ascending in angle, as (lower, upper, value_0, value_1).

    lower and upper are the bounding jump markers, None at angle 0 and
    at angle 1/2, which the last sub-arc holds.  The two marker lists are
    merged by exact comparison, so each sub-arc's values are read off
    the two value lists."""
    m0, m1 = sig0._markers, sig1._markers
    values0, values1 = sig0._values, sig1._values
    # all markers of one function share its square-free polynomial
    common = poly_gcd(m0[0].poly, m1[0].poly) if m0 and m1 else [1]
    arcs = []
    i = j = 0
    lower = None
    while i < len(m0) or j < len(m1):
        if i == len(m0):
            c = -1
        elif j == len(m1):
            c = 1
        else:
            c = compare_markers(m0[i], m1[j], common)
        # ascending angle is descending x = 2*cos(2*pi*angle)
        upper = m0[i] if c >= 0 else m1[j]
        arcs.append((lower, upper, values0[i], values1[j]))
        i += c >= 0
        j += c <= 0
        lower = upper
    arcs.append((lower, None, values0[i], values1[j]))
    return arcs


def _least_numerator_above(m: RootMarker, b: int) -> int | None:
    """Least a in [1, b/2] with a/b above the marker's jump angle, or None,
    by bisection on the exact test _arc_index([m], a/b), which is monotone
    in a; b must not be a jump denominator, so no a/b is the jump itself.
    (The test compares cosines, so it only sees angles up to 1/2.)"""
    half = b // 2
    a = 1 + bisect.bisect_left(
        range(1, half + 1), 1, key=lambda n: _arc_index([m], n, b)
    )
    return a if a <= half else None


def first_witness(
    sig0: SignatureFunction,
    sig1: SignatureFunction,
    bad: Callable[[int, int], bool],
    denominator_bound: int,
) -> tuple[bool, tuple | None]:
    """Where bad(sigma_0(omega), sigma_1(omega)) holds, decided on whole
    arcs, and the first such omega = exp(2*pi*i*a/b) in scan order.

    Returns (some sub-arc is bad, (omega, value_0, value_1) or None).  If
    no sub-arc is bad, no root of unity of any order off the jumps is a
    witness.  Otherwise the witness is the least a/b strictly inside a
    bad sub-arc, by increasing prime b up to denominator_bound, then by
    increasing a.  No prime b is a jump denominator of either function:
    Phi_b(1) = b for a prime b, so Phi_b dividing delta would make b
    divide delta(1) = +-1 (``SignatureFunction`` refuses any other
    delta), and a pullback's delta(t^p) takes the same value at 1.
    The bad set is symmetric under q -> 1 - q, so the least a lies in
    (0, 1/2], and the sub-arcs ascend, so the first bad sub-arc that
    holds some a/b holds the least.  Each a/b is placed against the
    markers by exact comparison of cosines; no float is consulted."""
    if sig0.is_identically_zero() and sig1.is_identically_zero():
        return False, None
    if sig0._delta == sig1._delta and sig0._values == sig1._values:
        return False, None  # same polynomial and arc values: the functions coincide
    bad_arcs = [arc for arc in _sub_arcs(sig0, sig1) if bad(arc[2], arc[3])]
    if not bad_arcs:
        return False, None
    for b in primes():
        if b > denominator_bound:
            break
        for lower, upper, v0, v1 in bad_arcs:
            a = 1 if lower is None else _least_numerator_above(lower, b)
            if a is None:
                break  # no a/b in (0, 1/2] above this sub-arc's start, nor later ones
            if upper is None or not _arc_index([upper], a, b):
                return True, (RootOfUnity(a, b), v0, v1)
    return True, None
