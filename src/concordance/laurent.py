"""Exact Laurent polynomials in one variable over the integers, and the
Fox-Milnor norm test.

Concordance obstructions are stated as equalities that hold only up to a
unit +-t^g of Z[t, t^-1], so every comparison here goes through an explicit
associate normal form.  Coefficients are Python ints, never bools, floats
or fractions.  Nothing in this module rounds.

``factor`` splits off the sign, the content and the power of t, and
leaves the primitive part to ``intfactor``, which factors by structure
(substitutions t^m, cyclotomic factors, the trace coordinate) and by
Zassenhaus's algorithm; the result must multiply back exactly.
``fox_milnor_pairing`` decides on that factorization whether a
polynomial is a norm f * f(1/t).

The textual syntax round-trips bit-exactly through ``parse``/``str``:

>>> p = LaurentPoly({1: 3, 0: -7, -1: 3})
>>> str(p)
'3*t^1 - 7 + 3*t^-1'
>>> LaurentPoly.parse(str(p)) == p
True
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

__all__ = [
    "Factorization", "FoxMilnorResult", "LaurentPoly", "doteq", "factor",
    "fox_milnor_pairing",
]

_TERM_RE = re.compile(
    r"""^([+-]?)\s*
        (?:(\d+)\s*)?                   # optional magnitude
        (?:\*?\s*t(?:\^([+-]?\d+))?)?$  # optional t part with signed exponent
    """,
    re.VERBOSE,
)


def is_int(v) -> bool:
    """An int, and not a bool: isinstance counts True and False (say, a
    JSON true or false) as ints, and no integer input of the library is
    one."""
    return isinstance(v, int) and not isinstance(v, bool)


def all_int(values) -> bool:
    """is_int of every item of a sequence, by one pass over the types: if
    every type is exactly int, no item is a bool and no call is needed;
    any other type sends the check through is_int item by item."""
    return {*map(type, values)} <= {int} or all(map(is_int, values))


def _exact(v):
    """A coefficient: an int, and not a bool."""
    if not is_int(v):
        raise TypeError(f"coefficient {v!r} must be an int")
    return v


class LaurentPoly:
    """sum(c_e * t**e) with int coefficients; immutable after construction."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        # one pass over the types, not a call per term: plain ints pass
        # at once, and anything else goes through is_int term by term
        if not {*map(type, coeffs), *map(type, coeffs.values())} <= {int}:
            for e, v in coeffs.items():
                if not is_int(e):
                    raise TypeError(f"exponent {e!r} must be an int")
                _exact(v)
        self._c = {e: v for e, v in coeffs.items() if v != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_coeffs(cls, coeffs, low: int = 0) -> "LaurentPoly":
        """Build from a list of coefficients for t^low, t^(low+1), ..."""
        return cls({low + i: c for i, c in enumerate(coeffs)})

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse ``3*t^1 - 7 + 3*t^-1`` style input.

        Accepts bare ``t``, ``-t^2`` and omitted ``*``; coefficients are
        integers.  Raises ValueError on anything else.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial string")
        # Split into terms at +/- signs that are not exponent signs.
        terms = []
        buf = []
        prev = ""
        for ch in s:
            if ch in "+-" and buf and prev not in "^+-*":
                terms.append("".join(buf))
                buf = [ch]
            else:
                buf.append(ch)
            if not ch.isspace():
                prev = ch
        terms.append("".join(buf))
        coeffs: dict[int, int] = {}
        for term in terms:
            term = term.strip()
            m = _TERM_RE.match(term)
            if not m or (m.group(2) is None and "t" not in term):
                raise ValueError(f"cannot parse term {term!r}")
            sign_s, mag_s, exp_s = m.groups()
            mag = int(sign_s + (mag_s or "1"))  # an omitted magnitude is 1
            e = 0
            if "t" in term:
                e = 1 if exp_s is None else int(exp_s)
            coeffs[e] = coeffs.get(e, 0) + mag
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
        """gcd of the coefficients, positive (0 for the zero polynomial)."""
        return math.gcd(*self._c.values())

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
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not is_int(n) or n < 0:
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
        if not is_int(k) or k < 1:
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

    # -- comparison / output -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if is_int(other):
                return self == self._coerce(other)
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if self._c.keys() <= {0}:
            return hash(self.coeff(0))
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
        """The product, multiplied out by Kronecker substitution: t = 2^w
        with 2^(w-1) above every coefficient of the product (a bound is
        content * prod ||q||_1^m), one integer product, and its digits in
        base 2^w, taken in [-2^(w-1), 2^(w-1)), as the coefficients."""
        bound = self.content
        for q, m in self.factors:
            bound *= sum(abs(c) for _, c in q.items()) ** m
        w = bound.bit_length() + 1
        value = self.sign * self.content
        for q, m in self.factors:
            at = 0
            for e in range(q.high(), -1, -1):
                at = (at << w) + q.coeff(e)
            value *= at**m
        coeffs, e, half = {}, self.power, 1 << (w - 1)
        while value:
            digit = value & ((1 << w) - 1)
            value >>= w
            if digit >= half:
                digit -= 1 << w
                value += 1
            coeffs[e] = digit
            e += 1
        return LaurentPoly(coeffs)

    def __mul__(self, other: "Factorization") -> "Factorization":
        """The factorization of the product: units and contents multiply,
        multiplicities of equal factors add."""
        merged = dict(self.factors)
        for q, m in other.factors:
            merged[q] = merged.get(q, 0) + m
        return Factorization(
            sign=self.sign * other.sign,
            power=self.power + other.power,
            content=self.content * other.content,
            factors=tuple(sorted(merged.items(), key=lambda fm: _factor_sort_key(fm[0]))),
        )


def factor(a: LaurentPoly) -> Factorization:
    """Factor into irreducibles over the rationals.

    pre: a nonzero.

    The sign, the content and the power of t are split off, and the
    primitive part goes to ``intfactor.factor_by_structure``, which
    factors it by structure and runs Zassenhaus's algorithm only on what
    structure cannot settle.  Each primitive part is factored once per
    process, in an LRU of ``FACTOR_CACHE_SIZE`` entries; hit or miss, the
    result is multiplied out again and must reproduce a exactly.

    >>> f = factor(LaurentPoly.parse("t^4 - 3*t^2 + 1"))
    >>> [str(q) for q, m in f.factors]
    ['1*t^2 - 1*t^1 - 1', '1*t^2 + 1*t^1 - 1']
    """
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    low, content = a.low(), a.content()
    sign = 1 if a.coeff(a.high()) > 0 else -1
    b = tuple(sign * a.coeff(e) // content for e in range(low, a.high() + 1))
    result = Factorization(sign=sign, power=low, content=content, factors=_primitive_factors(b))
    if result.expand() != a:
        raise ArithmeticError(f"factorization of {a} failed to round-trip")
    return result


# primitive parts kept by ``factor``; one CLI fox-milnor call factors <= 72
FACTOR_CACHE_SIZE = 256


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _primitive_factors(b: tuple) -> tuple:
    """The sorted (factor, multiplicity) pairs of a primitive part b."""
    # imported on first use: without a bytecode cache every module that
    # ``import concordance`` loads is compiled, and most commands never factor
    from .intfactor import factor_by_structure

    factors = [(LaurentPoly.from_coeffs(f), mu) for f, mu in factor_by_structure(list(b)).items()]
    return tuple(sorted(factors, key=lambda fm: _factor_sort_key(fm[0])))


@dataclass(frozen=True)
class FoxMilnorResult:
    """Outcome of the norm test a =. f * reciprocal(f).

    On success ``witness`` holds one valid f.  On failure exactly one of
    ``violating_factor`` (with its odd or unpaired multiplicity) or
    ``violating_content`` (a non-square content) is set, and ``reason``
    names the rule that failed: "content is not a perfect square",
    "self-reciprocal factor with odd multiplicity" or "factor unmatched
    by its reciprocal".
    """

    is_norm: bool
    witness: LaurentPoly | None
    violating_factor: LaurentPoly | None
    violating_multiplicity: int | None
    violating_content: int | None
    reason: str | None = None


def fox_milnor_pairing(
    a: LaurentPoly, factorization: Factorization | None = None
) -> FoxMilnorResult:
    """Decide whether a =. f * reciprocal(f) for some integer f.

    The decision runs on the irreducible factorization: the content must be
    a perfect square, every self-reciprocal factor must occur with even
    multiplicity, and the remaining factors must pair up (q with the normal
    form of reciprocal(q)) with equal multiplicities.  The first factor in
    the deterministic order to break one of these rules is reported.
    A caller that already holds the factorization of a (say, merged from
    its parts) passes it as ``factorization``; it must multiply back to a
    exactly.

    >>> r = fox_milnor_pairing(LaurentPoly.parse("t^4 - 3*t^2 + 1"))
    >>> r.is_norm, str(r.witness)
    (True, '1*t^2 - 1*t^1 - 1')
    >>> bad = LaurentPoly.parse("3*t^2 - 7*t^1 + 3") * LaurentPoly.parse("3*t^4 - 7*t^2 + 3")
    >>> r = fox_milnor_pairing(bad)
    >>> r.is_norm, str(r.violating_factor)
    (False, '3*t^2 - 7*t^1 + 3')
    """
    if factorization is None:
        fact = factor(a)
    elif factorization.expand() == a:
        fact = factorization
    else:
        raise ArithmeticError(f"the factorization given does not multiply back to {a}")

    def fail(reason, q=None, m=None, content=None):
        return FoxMilnorResult(False, None, q, m, content, reason)

    root = math.isqrt(fact.content)
    if root * root != fact.content:
        return fail("content is not a perfect square", content=fact.content)
    witness = LaurentPoly({0: root})
    multiplicity = dict(fact.factors)
    for q, m in fact.factors:
        # q is primitive, so this is the normal form the factors are keyed by
        qstar = q.reciprocal().associate_normal()
        if qstar == q:
            if m % 2:
                return fail("self-reciprocal factor with odd multiplicity", q, m)
            witness = witness * q ** (m // 2)
        else:
            if multiplicity.get(qstar, 0) != m:
                return fail("factor unmatched by its reciprocal", q, m)
            if _factor_sort_key(q) < _factor_sort_key(qstar):
                witness = witness * q**m
    if not doteq(a, witness * witness.reciprocal()):
        raise ArithmeticError(f"norm witness {witness} does not reproduce {a}")
    return FoxMilnorResult(True, witness, None, None, None)
