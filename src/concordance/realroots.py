"""Real-root isolation for integer polynomials on an interval, via Sturm
chains over exact rationals.

Polynomials are coefficient lists, lowest degree first.  Roots come back
as markers that are either exact rationals or open isolating intervals
with rational endpoints; intervals can be refined on demand and never
commit to a floating-point answer.
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


def _sign_at(coeffs: list, x: Fraction) -> int:
    """Sign of the polynomial at x, from d^deg * p(n/d) in integer
    arithmetic when the coefficients are integers."""
    n, d = x.numerator, x.denominator
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


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    num = [Fraction(c) for c in num]
    den = _trim([Fraction(c) for c in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c:
            q = c / lead
            quo[i - len(den) + 1] = q
            for j, dv in enumerate(den):
                num[i - len(den) + 1 + j] -= q * dv
    return _trim(quo), _trim(num)


def poly_gcd(a: list, b: list) -> list:
    a, b = _trim(a), _trim(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [Fraction(c) / lead for c in a]
    return a


def squarefree_part(coeffs: list) -> list:
    """coeffs / gcd(coeffs, coeffs'), normalized to integer coefficients
    with positive leading coefficient."""
    coeffs = _trim(coeffs)
    if len(coeffs) <= 1:
        return coeffs
    g = poly_gcd(coeffs, poly_derivative(coeffs))
    sf, rem = _poly_divmod(coeffs, g)
    if rem:
        raise ArithmeticError("division by gcd(p, p') left a remainder")
    out = _integer_multiple(sf)
    return [-c for c in out] if out[-1] < 0 else out


def _integer_multiple(coeffs: list) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of
    coeffs; a positive factor changes no sign."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def sturm_chain(coeffs: list) -> list[list]:
    """Sturm sequence of coeffs, each member scaled to a primitive
    integer polynomial, which leaves every sign variation count as is."""
    chain = [_trim(coeffs), _trim(poly_derivative(coeffs))]
    while chain[-1]:
        _, r = _poly_divmod(chain[-2], chain[-1])
        chain.append(_integer_multiple([-c for c in r]) if r else [])
    chain.pop()
    return chain


def _variations(chain: list[list], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass
class RootMarker:
    """One real root of a squarefree polynomial: exact, or isolated in an
    open interval (lo, hi) whose endpoints are not roots."""

    poly: list
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    def refine(self, width: Fraction) -> None:
        """Shrink the isolating interval below the given width by bisection;
        may discover the root is a rational bisection point and go exact."""
        if self.exact is not None:
            return
        s_lo = _sign_at(self.poly, self.lo)
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            v = _sign_at(self.poly, mid)
            if v == 0:
                self.exact = mid
                self.lo = self.hi = mid
                return
            if v == s_lo:
                self.lo = mid
            else:
                self.hi = mid

    def excludes(self, x: Fraction) -> bool:
        return not (self.lo < x < self.hi)

    def compare_rational(self, x: Fraction) -> int:
        """-1, 0, +1 as the root is below, equal to, or above x."""
        if self.exact is not None:
            return -1 if self.exact < x else (0 if self.exact == x else 1)
        if self.lo < x < self.hi:
            s_x = _sign_at(self.poly, x)
            if s_x == 0:
                return 0
            # x splits the interval; keep the half with the sign change
            if s_x == _sign_at(self.poly, self.lo):
                self.lo = x
            else:
                self.hi = x
        return -1 if self.hi <= x else 1

    def float_value(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        self.refine(Fraction(1, 10**12))
        return float((self.lo + self.hi) / 2)


def compare_markers(m1: RootMarker, m2: RootMarker, common: list) -> int:
    """-1, 0, +1 as the root of m1 is below, equal to, or above the root
    of m2, where common = gcd(m1.poly, m2.poly).

    Two overlapping isolating intervals hold the same root exactly when
    common changes sign across their intersection: each interval holds
    one root of its square-free polynomial, so at most one root of
    common, and a root of common in both is the root of each.  Otherwise
    the roots differ and bisection separates them, so refinement never
    tries to separate a root from itself.  Refines both markers in place.
    """
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
        if _sign_at(common, lo) != _sign_at(common, hi):
            return 0
        m1.refine((m1.hi - m1.lo) / 2)
        m2.refine((m2.hi - m2.lo) / 2)


def isolate_roots(coeffs: list, lo: Fraction, hi: Fraction) -> list[RootMarker]:
    """All distinct real roots of coeffs in the open interval (lo, hi),
    sorted ascending.  Endpoints must not be roots."""
    lo, hi = Fraction(lo), Fraction(hi)
    sf = squarefree_part(coeffs)
    if len(sf) <= 1:
        return []
    if poly_eval(sf, lo) == 0 or poly_eval(sf, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")

    exacts: list[Fraction] = []
    # peel off rational roots discovered at bisection points, restarting on
    # the deflated polynomial so every interval root is irrational
    while True:
        chain = sturm_chain(sf)
        intervals: list[tuple[Fraction, Fraction]] = []
        restart = False
        stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
        while stack:
            a, b, va, vb = stack.pop()
            n = va - vb
            if n == 0:
                continue
            if n == 1:
                intervals.append((a, b))
                continue
            mid = (a + b) / 2
            if _sign_at(sf, mid) == 0:
                exacts.append(mid)
                q, rem = _poly_divmod(sf, [-mid, Fraction(1)])
                if rem:
                    raise ArithmeticError("deflating a rational root left a remainder")
                sf = squarefree_part(q)
                restart = True
                break
            vm = _variations(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
        if not restart:
            break

    markers = [RootMarker(sf, a, b) for a, b in intervals]
    for x in exacts:
        for m in markers:
            if not m.excludes(x):
                m.compare_rational(x)
        markers.append(RootMarker(sf, x, x, exact=x))
    for m in markers:
        m.refine(Fraction(1, 64))
    # separate any markers that still overlap (possible after deflation)
    changed = True
    while changed:
        changed = False
        for m1 in markers:
            for m2 in markers:
                if m1 is m2:
                    continue
                if m1.lo < m2.hi and m2.lo < m1.hi:
                    m1.refine((m1.hi - m1.lo) / 4)
                    m2.refine((m2.hi - m2.lo) / 4)
                    changed = True
    markers.sort(key=lambda m: m.lo)
    return markers
