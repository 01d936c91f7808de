"""Exact Laurent polynomials in one variable over the integers.

Concordance obstructions are stated as equalities that hold only up to a
unit +-t^g of Z[t, t^-1], so every comparison here goes through an explicit
associate normal form.  Coefficients are Python ints (exact rationals are
accepted by the arithmetic, but factorization and the Fox-Milnor test
require integer coefficients).  Nothing in this module rounds.

The textual syntax round-trips bit-exactly through ``parse``/``str``:

>>> p = LaurentPoly({1: 3, 0: -7, -1: 3})
>>> str(p)
'3*t^1 - 7 + 3*t^-1'
>>> LaurentPoly.parse(str(p)) == p
True
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from sympy import ZZ, Poly, Symbol

_T = Symbol("t")

_TERM_RE = re.compile(
    r"""^([+-]?)\s*
        (?:(\d+(?:/\d+)?)\s*)?          # optional magnitude, possibly a/b
        (?:\*?\s*t(?:\^([+-]?\d+))?)?$  # optional t part with signed exponent
    """,
    re.VERBOSE,
)


def _exact(v):
    """Coerce a coefficient to int or Fraction, rejecting floats."""
    if isinstance(v, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError(f"coefficient {v!r} must be int or Fraction")


class LaurentPoly:
    """sum(c_e * t**e) with exact coefficients; immutable after construction."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError(f"exponent {e!r} must be an int")
                v = _exact(v)
                if v != 0:
                    c[e] = v
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t_power(cls, e: int, c=1) -> "LaurentPoly":
        return cls({e: c})

    @classmethod
    def from_coeffs(cls, coeffs, low: int = 0) -> "LaurentPoly":
        """Build from a list of coefficients for t^low, t^(low+1), ..."""
        return cls({low + i: c for i, c in enumerate(coeffs)})

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse ``3*t^1 - 7 + 3*t^-1`` style input.

        Accepts bare ``t``, ``-t^2``, omitted ``*``, and rational
        coefficients ``a/b``.  Raises ValueError on anything else.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial string")
        if s == "0":
            return cls()
        # Split into terms at +/- signs that are not exponent signs.
        terms = []
        buf = []
        prev = ""
        for ch in s:
            if ch in "+-" and buf and prev not in "^+-*/":
                terms.append("".join(buf))
                buf = [ch]
            else:
                buf.append(ch)
            if not ch.isspace():
                prev = ch
        terms.append("".join(buf))
        coeffs: dict[int, object] = {}
        for term in terms:
            m = _TERM_RE.match(term.strip())
            if not m or (m.group(2) is None and m.group(0).strip() in ("", "+", "-")):
                raise ValueError(f"cannot parse term {term!r}")
            sign_s, mag_s, exp_s = m.groups()
            has_t = "t" in term
            if mag_s is None:
                if not has_t:
                    raise ValueError(f"cannot parse term {term!r}")
                mag = 1
            elif "/" in mag_s:
                num, den = mag_s.split("/")
                mag = Fraction(int(num), int(den))
            else:
                mag = int(mag_s)
            if sign_s == "-":
                mag = -mag
            e = 0
            if has_t:
                e = 1 if exp_s is None else int(exp_s)
            prev_val = coeffs.get(e, 0)
            coeffs[e] = prev_val + mag
        return cls(coeffs)

    # -- inspection --------------------------------------------------------

    def items(self):
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def coeff(self, e: int):
        return self._c.get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def is_integer(self) -> bool:
        return all(isinstance(v, int) for v in self._c.values())

    def low(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no lowest exponent")
        return min(self._c)

    def high(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no highest exponent")
        return max(self._c)

    def span(self) -> int:
        """Difference between highest and lowest exponent (0 for monomials)."""
        return self.high() - self.low()

    def content(self) -> int:
        """gcd of the coefficients (integer polynomials only), positive."""
        if not self.is_integer():
            raise ValueError("content requires integer coefficients")
        if self.is_zero:
            return 0
        return math.gcd(*[abs(v) for v in self._c.values()]) if len(self._c) > 1 else abs(
            next(iter(self._c.values()))
        )

    def evaluate(self, x):
        """Exact value at x (int or Fraction); x must be nonzero if any
        exponent is negative."""
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self._c.items():
            if e < 0 and x == 0:
                raise ZeroDivisionError("evaluating t^negative at 0")
            total += Fraction(c) * x**e
        return int(total) if total.denominator == 1 else total

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        c: dict[int, object] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly({0: _exact(other)})

    # -- normal forms ------------------------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def reciprocal(self) -> "LaurentPoly":
        """t -> t^-1.  An exact involution."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

    def substitute_power(self, k: int) -> "LaurentPoly":
        """t -> t^k for k >= 1; exponents multiply, coefficients unchanged."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution power must be an int >= 1")
        return LaurentPoly({e * k: v for e, v in self._c.items()})

    def associate_normal(self) -> "LaurentPoly":
        """Canonical representative up to units +-t^g: lowest exponent 0,
        positive leading coefficient.  Content is preserved."""
        if self.is_zero:
            return self
        shifted = self.shift(-self.low())
        if shifted.coeff(shifted.high()) < 0:
            shifted = -shifted
        return shifted

    def primitive_normal(self) -> "LaurentPoly":
        """Associate normal form divided by the content (integer inputs)."""
        p = self.associate_normal()
        if p.is_zero:
            return p
        c = p.content()
        if c > 1:
            p = LaurentPoly({e: v // c for e, v in p._c.items()})
        return p

    # -- comparison / output -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction)):
                return self == self._coerce(other)
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            c = self._c[e]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = f"{mag}"
            else:
                body = f"{mag}*t^{e}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"LaurentPoly.parse({str(self)!r})"


# -- module-level operation names ------------------------------------------


def doteq(a: LaurentPoly, b: LaurentPoly) -> bool:
    """Equality up to multiplication by +-t^g.

    >>> doteq(LaurentPoly.parse("1*t^1 - 1 + 1*t^-1"), LaurentPoly.parse("t^2 - t + 1"))
    True
    >>> doteq(LaurentPoly.parse("t^2 - t + 1"), LaurentPoly.parse("t^2 + t - 1"))
    False
    """
    return a.associate_normal() == b.associate_normal()


def reciprocal(a: LaurentPoly) -> LaurentPoly:
    return a.reciprocal()


def substitute_power(a: LaurentPoly, k: int) -> LaurentPoly:
    return a.substitute_power(k)


def _factor_sort_key(p: LaurentPoly):
    """Deterministic factor order: degree, then coefficient tuple from the
    constant term upward."""
    top = p.high()
    return (top, tuple(p.coeff(e) for e in range(0, top + 1)))


@dataclass(frozen=True)
class Factorization:
    """Irreducible factorization over Q of an integer Laurent polynomial.

    ``sign * content * t**power * prod(q**m)`` reproduces the input exactly.
    Factors are primitive with positive leading coefficient and lowest
    exponent 0, sorted by degree then lexicographically on coefficients.
    The content field extends the plain +-t^g unit so that the round-trip
    identity also holds for imprimitive inputs.
    """

    sign: int
    power: int
    content: int
    factors: tuple

    def expand(self) -> LaurentPoly:
        out = LaurentPoly.t_power(self.power, self.sign * self.content)
        for q, m in self.factors:
            out = out * q**m
        return out


def factor(a: LaurentPoly) -> Factorization:
    """Factor into irreducibles over the rationals.

    pre: a nonzero with integer coefficients.

    >>> f = factor(LaurentPoly.parse("t^4 - 3*t^2 + 1"))
    >>> [str(q) for q, m in f.factors]
    ['1*t^2 - 1*t^1 - 1', '1*t^2 + 1*t^1 - 1']
    """
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not a.is_integer():
        raise ValueError("factorization requires integer coefficients")
    low = a.low()
    deg = a.high() - low
    coeffs_desc = [a.coeff(low + e) for e in range(deg, -1, -1)]
    unit, raw = Poly(coeffs_desc, _T, domain=ZZ).factor_list()
    unit = int(unit)
    factors = []
    for f, m in raw:
        coeffs = [int(x) for x in reversed(f.all_coeffs())]
        q = LaurentPoly({e: c for e, c in enumerate(coeffs)}).primitive_normal()
        factors.append((q, int(m)))
    factors.sort(key=lambda fm: _factor_sort_key(fm[0]))
    result = Factorization(
        sign=1 if unit > 0 else -1,
        power=low,
        content=abs(unit),
        factors=tuple(factors),
    )
    if result.expand() != a:
        raise ArithmeticError(f"factorization of {a} failed to round-trip")
    return result


@dataclass(frozen=True)
class FoxMilnorResult:
    """Outcome of the norm test a =. f * reciprocal(f).

    On success ``witness`` holds one valid f.  On failure exactly one of
    ``violating_factor`` (with its odd or unpaired multiplicity) or
    ``violating_content`` (a non-square content) is set.
    """

    is_norm: bool
    witness: LaurentPoly | None
    violating_factor: LaurentPoly | None
    violating_multiplicity: int | None
    violating_content: int | None


def fox_milnor_pairing(a: LaurentPoly) -> FoxMilnorResult:
    """Decide whether a =. f * reciprocal(f) for some integer f.

    The decision runs on the irreducible factorization: the content must be
    a perfect square, every self-reciprocal factor must occur with even
    multiplicity, and the remaining factors must pair up (q with the normal
    form of reciprocal(q)) with equal multiplicities.  The first factor in
    the deterministic order to break one of these rules is reported.

    >>> r = fox_milnor_pairing(LaurentPoly.parse("t^4 - 3*t^2 + 1"))
    >>> r.is_norm, str(r.witness)
    (True, '1*t^2 - 1*t^1 - 1')
    >>> bad = LaurentPoly.parse("3*t^2 - 7*t^1 + 3") * LaurentPoly.parse("3*t^4 - 7*t^2 + 3")
    >>> r = fox_milnor_pairing(bad)
    >>> r.is_norm, str(r.violating_factor)
    (False, '3*t^2 - 7*t^1 + 3')
    """
    fact = factor(a)

    def fail(q=None, m=None, content=None):
        return FoxMilnorResult(False, None, q, m, content)

    root = math.isqrt(fact.content)
    if root * root != fact.content:
        return fail(content=fact.content)
    witness = LaurentPoly({0: root})
    multiplicity = dict(fact.factors)
    for q, m in fact.factors:
        qstar = q.reciprocal().primitive_normal()
        if qstar == q:
            if m % 2:
                return fail(q, m)
            witness = witness * q ** (m // 2)
        else:
            if multiplicity.get(qstar, 0) != m:
                return fail(q, m)
            if _factor_sort_key(q) < _factor_sort_key(qstar):
                witness = witness * q**m
    if not doteq(a, witness * witness.reciprocal()):
        raise ArithmeticError(f"norm witness {witness} does not reproduce {a}")
    return FoxMilnorResult(True, witness, None, None, None)
