"""Real-root isolation for integer polynomials on an interval, via Sturm
chains over the integers.

Polynomials are integer coefficient lists, lowest degree first.  Two
divisions over Z serve the library: ``exact_quotient`` for every
divisibility test and exact quotient (square-free parts here, cyclotomic
divisibility, Zassenhaus's trial divisions), and ``poly_divmod``, a
pseudo-division whose scale factor is positive, so its remainder has the
signs of the remainder over Q; it builds the remainder sequences, Sturm
chains and gcds, with primitive parts.  Roots come back as markers that
are either exact rationals or open isolating intervals with rational
endpoints.
Bisection points are N/(D*2^k), D the lcm of the endpoint denominators,
carried as two ints; only a marker's lo, hi and exact are Fractions.
Floats are for display only (``float_value``).
Markers are values: refining one returns a narrower marker, nothing
changes a marker in place, and no comparison commits to a
floating-point answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def poly_eval(coeffs: list, x):
    """Exact value at x by Horner: an int at an int, a Fraction at a Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_at(coeffs: list, n: int, d: int) -> int:
    """Sign of the polynomial at n/d (d > 0), from d^deg * p(n/d) in
    integer arithmetic."""
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * n + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


def poly_derivative(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _trim(coeffs: list) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_divmod(num: list, den: list) -> tuple[list, list]:
    """(q, r) with c*num = q*den + r and deg r < deg den, over the integers.

    c = |lc(den)|^k, where k counts the steps whose leading coefficient
    lc(den) does not divide; so a monic den divides plainly (c = 1), and
    since c > 0, r has the signs of the remainder over Q."""
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _trim(num)
    lead, dd = den[-1], len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        if c % lead:
            rem = [abs(lead) * v for v in rem]
            quo = [abs(lead) * v for v in quo]
            c = rem[i]
        q = c // lead
        quo[i - dd] = q
        for j, dv in enumerate(den):
            rem[i - dd + j] -= q * dv
    return _trim(quo), _trim(rem)


def exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g in Z[x], or None when g does not divide f there."""
    n = len(g) - 1
    r, low = list(f), g[:n]
    q = [0] * (len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        c, rem = divmod(r[i], g[-1])
        if rem:
            return None
        q[i - n] = c
        if c:
            r[i - n : i] = [x - c * y for x, y in zip(r[i - n : i], low)]
    return None if any(r[:n]) else q


def primitive_part(coeffs: list) -> list:
    """coeffs over its content and with positive leading coefficient."""
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs] if coeffs[-1] > 0 else [-c // g for c in coeffs]


def poly_gcd(a: list, b: list) -> list:
    """The gcd in Z[x], with positive leading coefficient: the content
    gcd times the last member of the primitive remainder sequence."""
    a, b = _trim(a), _trim(b)
    content = math.gcd(*a, *b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, (primitive_part(r) if r else [])
    return [content * c for c in primitive_part(a)] if a else []


def squarefree_part(coeffs: list) -> list:
    """coeffs / gcd(coeffs, coeffs'), primitive, with positive leading
    coefficient."""
    coeffs = _trim(coeffs)
    if len(coeffs) <= 1:
        return coeffs
    sf = exact_quotient(coeffs, poly_gcd(coeffs, poly_derivative(coeffs)))
    if sf is None:
        raise ArithmeticError("division by gcd(p, p') left a remainder")
    return primitive_part(sf)


def sturm_chain(coeffs: list) -> list[list]:
    """Sturm sequence of coeffs: each member after the first two is minus
    a pseudo-remainder over its content, a positive multiple of minus the
    remainder over Q, which leaves every sign variation count as is."""
    chain = [_trim(coeffs), _trim(poly_derivative(coeffs))]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    chain.pop()
    return chain


def _common_denominator(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(N_lo, N_hi, D) with lo = N_lo/D and hi = N_hi/D, D the lcm of the
    two denominators."""
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def _variations(chain: list[list], n: int, d: int) -> int:
    signs = [s for s in (_sign_at(p, n, d) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootMarker:
    """One real root of a squarefree polynomial: exact, or isolated in an
    open interval (lo, hi) whose endpoints are not roots."""

    poly: list
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    def refine(self, width: Fraction) -> RootMarker:
        """The same root isolated below the given width by bisection, or
        an exact marker when a bisection point is the root; this marker
        itself when it is exact or already narrow enough."""
        if self.exact is None:
            lo, hi, d = _common_denominator(self.lo, self.hi)
            if (hi - lo) * width.denominator > width.numerator * d:
                return _bisect(self.poly, lo, hi, d, width)
        return self

    def compare_rational(self, x: Fraction) -> int:
        """-1, 0, +1 as the root is below, equal to, or above x."""
        if self.exact is not None:
            return (self.exact > x) - (self.exact < x)
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return -1
        s_x = _sign_at(self.poly, *x.as_integer_ratio())
        if s_x == 0:
            return 0
        # the sign changes on the side of x that holds the root
        return 1 if s_x == _sign_at(self.poly, *self.lo.as_integer_ratio()) else -1

    def float_value(self) -> float:
        """An approximation of the root, for display only."""
        m = self.refine(Fraction(1, 10**12))
        return float((m.lo + m.hi) / 2)


def _bisect(poly: list, lo: int, hi: int, d: int, width: Fraction) -> RootMarker:
    """The root of poly in (lo/d, hi/d), whose ends are not roots,
    isolated below width by bisection, or an exact marker when a
    bisection point is the root."""
    s_lo = _sign_at(poly, lo, d)
    while (hi - lo) * width.denominator > width.numerator * d:
        mid, lo, hi, d = lo + hi, 2 * lo, 2 * hi, 2 * d
        v = _sign_at(poly, mid, d)
        if v == 0:
            x = Fraction(mid, d)
            return RootMarker(poly, x, x, exact=x)
        if v == s_lo:
            lo = mid
        else:
            hi = mid
    return RootMarker(poly, Fraction(lo, d), Fraction(hi, d))


def compare_markers(m1: RootMarker, m2: RootMarker, common: list) -> int:
    """-1, 0, +1 as the root of m1 is below, equal to, or above the root
    of m2, where common = gcd(m1.poly, m2.poly).

    Two overlapping isolating intervals hold the same root exactly when
    common changes sign across their intersection: each interval holds
    one root of its square-free polynomial, so at most one root of
    common, and a root of common in both is the root of each.  Otherwise
    the roots differ and bisection separates them, so refinement never
    tries to separate a root from itself."""
    while True:
        if m1.exact is not None:
            return -m2.compare_rational(m1.exact)
        if m2.exact is not None:
            return m1.compare_rational(m2.exact)
        if m1.hi <= m2.lo:
            return -1
        if m2.hi <= m1.lo:
            return 1
        lo, hi = max(m1.lo, m2.lo), min(m1.hi, m2.hi)
        if _sign_at(common, *lo.as_integer_ratio()) != _sign_at(common, *hi.as_integer_ratio()):
            return 0
        m1 = m1.refine((m1.hi - m1.lo) / 2)
        m2 = m2.refine((m2.hi - m2.lo) / 2)


def isolate_roots(coeffs: list, lo: Fraction, hi: Fraction) -> list[RootMarker]:
    """All distinct real roots of coeffs in the open interval (lo, hi),
    sorted ascending.  Endpoints must not be roots.

    Bisects (lo, hi) by Sturm counts.  A bisection point c that is a root
    becomes an exact marker, and both halves are bisected on: for the
    square-free part, V(c) = V(c+), so (a, c) holds V(a) - V(c) - 1 roots
    and (c, b) holds V(c) - V(b).  An interval with one root becomes a
    marker only once neither end is a root, so every marker interval is a
    node of the bisection tree of (lo, hi) with root-free ends."""
    sf = squarefree_part(coeffs)
    if len(sf) <= 1:
        return []
    lo, hi, d = _common_denominator(Fraction(lo), Fraction(hi))
    if _sign_at(sf, lo, d) == 0 or _sign_at(sf, hi, d) == 0:
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(sf)
    markers = []
    # (a/d, b/d), their variation counts, and whether each end is a root
    stack = [(lo, hi, d, _variations(chain, lo, d), _variations(chain, hi, d), False, False)]
    while stack:
        a, b, d, va, vb, a_root, b_root = stack.pop()
        n = va - vb - b_root
        if n == 0:
            continue
        if n == 1 and not a_root and not b_root:
            markers.append(_bisect(sf, a, b, d, Fraction(1, 64)))
            continue
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        mid_root = _sign_at(sf, mid, d) == 0
        if mid_root:
            x = Fraction(mid, d)
            markers.append(RootMarker(sf, x, x, exact=x))
        vm = _variations(chain, mid, d)
        stack.append((a, mid, d, va, vm, a_root, mid_root))
        stack.append((mid, b, d, vm, vb, mid_root, b_root))
    markers.sort(key=lambda m: m.lo)
    return markers
