"""Exact Laurent polynomials in one variable over the integers.

Concordance obstructions are stated as equalities that hold only up to a
unit +-t^g of Z[t, t^-1], so every comparison here goes through an explicit
associate normal form.  Coefficients are Python ints (exact rationals are
accepted by the arithmetic, but factorization and the Fox-Milnor test
require integer coefficients).  Nothing in this module rounds.

``factor`` factors by structure and runs the general algorithm only on
what structure cannot settle.  (1) A polynomial in t^m is factored in t,
and each factor is substituted back on its own; a cyclotomic Phi_e is
recognised exactly and Phi_e(t^m) expands into known Phi_d without
factoring.  (2) A self-reciprocal polynomial of degree 2n is
t^n * g(t + 1/t) with deg g = n; the trace polynomial g is factored
unless it is linear, and each irreducible h of g lifts to
t^deg(h) * h(t + 1/t), which is irreducible unless x^2 - 4 is a square
modulo h.  A lift is certified irreducible when h(2)*h(-2) is not a
rational square (a norm), or when a simple root of h modulo a small odd
prime has a^2 - 4 a non-residue (Hensel); only an uncertified lift is
factored.  (3) Anything else is factored whole.  Factoring over Z is
``intfactor``'s (Zassenhaus, with the standard library alone).

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
from itertools import islice

from .cyclotomic import cyclotomic_coeffs, primes, totient
from .realroots import poly_eval

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
                if int(den) == 0:
                    raise ValueError(f"zero denominator in term {term.strip()!r}")
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


def trace_polynomial(a: LaurentPoly) -> list[int]:
    """The trace coordinate: the integer polynomial g (coefficients lowest
    degree first) with a(t) = g(t + 1/t) for a balanced self-reciprocal
    a, that is, t^n * g(t + 1/t) once a is shifted to t^0..t^2n.  On the
    unit circle its values are g(2*cos(theta))."""
    n = a.high()
    basis = v_polys(n)
    acc = [0] * (n + 1)
    acc[0] = int(a.coeff(0))
    for j in range(1, n + 1):
        c = int(a.coeff(j))
        if c:
            for i, bc in enumerate(basis[j]):
                acc[i] += c * bc
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return acc


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


# Odd primes tried for the Hensel certificate of a lift before the lift
# is factored whole; an uncertified lift is only slower, never wrong.
_CERTIFICATE_PRIMES = 12


def factor(a: LaurentPoly, memo: dict | None = None) -> Factorization:
    """Factor into irreducibles over the rationals.

    pre: a nonzero with integer coefficients.

    After the sign, the content and the power of t are split off, the
    primitive part b(t^m), with m the gcd of its exponents, is factored
    by structure, and Zassenhaus's algorithm (``intfactor``) sees only
    what structure cannot settle:

    1. Power substitution.  b is factored (steps 2 and 3) and each
       irreducible q is substituted back on its own; distinct q give
       coprime q(t^m).  A cyclotomic q = Phi_e is recognised exactly
       (phi(e) = deg q forces e <= 2*deg(q)^2) and expanded without
       factoring: Phi_e(t^m) is the product of Phi_d over the d | e*m
       with d / gcd(d, m) = e.  Any other q(t^m) goes to step 2.
    2. Trace coordinate.  A self-reciprocal polynomial of even degree 2n
       is t^n * g(t + 1/t) with deg g = n (``trace_polynomial``).  A g of
       degree at most 1 is irreducible as it stands; any other g is
       factored over Z.  Each irreducible h of g lifts to
       H(t) = t^deg(h) * h(t + 1/t), which is irreducible unless x^2 - 4
       is a square in Q[x]/(h).  That is certified to fail when
       h(2)*h(-2), a square times the norm of x^2 - 4, is not a rational
       square, or when for some odd prime p not dividing lc(h), h has a
       simple root a mod p (it lifts to a p-adic root by Hensel) with
       a^2 - 4 a quadratic non-residue.  Only an uncertified lift is
       factored over Z; such a lift is typically a pair F * F(1/t), or
       holds t -+ 1.
    3. Everything else is factored over Z whole.

    ``memo`` maps (q, j) to the irreducible factors of q(t^j); one dict
    passed to several calls factors each b and each q(t^j) once.  Since
    a(t^k) has the same b as a, the calls for a(t), a(t^2), ... share
    the factorization of b, and a(t^p), a (p,1)-cable's polynomial,
    reuses at k the entry of a at p*k.  The result is multiplied out
    again and must reproduce a exactly.

    >>> f = factor(LaurentPoly.parse("t^4 - 3*t^2 + 1"))
    >>> [str(q) for q, m in f.factors]
    ['1*t^2 - 1*t^1 - 1', '1*t^2 + 1*t^1 - 1']
    """
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not a.is_integer():
        raise ValueError("factorization requires integer coefficients")
    memo = {} if memo is None else memo
    low, content = a.low(), a.content()
    sign = 1 if a.coeff(a.high()) > 0 else -1
    b = [sign * a.coeff(e) // content for e in range(low, a.high() + 1)]
    m = math.gcd(*(e for e, c in enumerate(b) if c))
    merged: dict[tuple, int] = {}
    if m:
        root = tuple(b[::m])
        if (root, 1) not in memo:
            memo[root, 1] = _factor_primitive(list(root))
        for q, mu in memo[root, 1]:
            if (q, m) not in memo:
                memo[q, m] = _substitute(q, m)
            for f, nu in memo[q, m]:
                merged[f] = merged.get(f, 0) + mu * nu
    factors = sorted(
        ((LaurentPoly.from_coeffs(f), mu) for f, mu in merged.items()),
        key=lambda fm: _factor_sort_key(fm[0]),
    )
    result = Factorization(sign=sign, power=low, content=content, factors=tuple(factors))
    if result.expand() != a:
        raise ArithmeticError(f"factorization of {a} failed to round-trip")
    return result


def _factor_primitive(b: list[int]) -> list[tuple[tuple, int]]:
    """Irreducible factors (coefficient tuples, lowest degree first) and
    multiplicities of a primitive b with b[0] != 0 and b[-1] > 0."""
    if len(b) % 2 and b == b[::-1]:
        return _factor_reciprocal(b)
    return _factor_zz(b)


def _factor_reciprocal(b: list[int]) -> list[tuple[tuple, int]]:
    """Step 2: factor g in the trace coordinate and lift each factor."""
    n = len(b) // 2
    g = trace_polynomial(LaurentPoly.from_coeffs(b, -n))
    out = []
    for h, mu in [(tuple(g), 1)] if len(g) <= 2 else _factor_zz(g):
        if _lift_is_irreducible(h):
            out.append((_lift(h), mu))
        else:
            out.extend((f, mu * nu) for f, nu in _factor_zz(list(_lift(h))))
    return out


def _lift(h: tuple) -> tuple:
    """t^n * h(t + 1/t) for h of degree n, by Horner in x = t + 1/t:
    T_j = T_{j+1} * (t^2 + 1) + h_j * t^(n-j) has degree 2(n - j)."""
    n = len(h) - 1
    acc = [h[n]]
    for j in range(n - 1, -1, -1):
        nxt = acc + [0, 0]
        for i, c in enumerate(acc):
            nxt[i + 2] += c
        nxt[n - j] += h[j]
        acc = nxt
    return tuple(acc)


def _lift_is_irreducible(h: tuple) -> bool:
    """A certificate that x^2 - 4 is not a square in Q[x]/(h), for an
    irreducible h, so that its lift t^deg(h) * h(t + 1/t) is irreducible.
    False means no certificate was found, not that the lift is reducible."""
    # the norm of x^2 - 4 = (x - 2)(x + 2) is h(2)*h(-2) / lc(h)^2
    norm = poly_eval(h, 2) * poly_eval(h, -2)
    if norm < 0 or math.isqrt(norm) ** 2 != norm:
        return True
    dh = [i * c for i, c in enumerate(h)][1:]
    for p in islice(primes(), 1, 1 + _CERTIFICATE_PRIMES):
        if h[-1] % p == 0:
            continue
        for r in range(p):
            if (
                poly_eval(h, r) % p == 0
                and poly_eval(dh, r) % p
                and pow(r * r - 4, (p - 1) // 2, p) == p - 1
            ):
                return True
    return False


def _substitute(q: tuple, m: int) -> list[tuple[tuple, int]]:
    """Step 1: the irreducible factors of q(t^m) for an irreducible q."""
    if m == 1:
        return [(q, 1)]
    e = _cyclotomic_index(q)
    if e:
        return [
            (tuple(cyclotomic_coeffs(d)), 1)
            for d in range(1, e * m + 1)
            if (e * m) % d == 0 and d // math.gcd(d, m) == e
        ]
    qm = [0] * (m * (len(q) - 1) + 1)
    qm[::m] = q
    return _factor_primitive(qm)


def _cyclotomic_index(q: tuple) -> int | None:
    """e with q = Phi_e, or None.  phi(e) >= sqrt(e/2), so e <= 2*deg^2."""
    deg = len(q) - 1
    if q[-1] != 1 or abs(q[0]) != 1:
        return None
    for e in range(1, 2 * deg * deg + 1):
        if totient(e) == deg and tuple(cyclotomic_coeffs(e)) == q:
            return e
    return None


def _factor_zz(f: list[int]) -> list[tuple[tuple, int]]:
    # imported on first use: without a bytecode cache every module that
    # ``import concordance`` loads is compiled, and most commands never factor
    from .intfactor import irreducible_factors

    return irreducible_factors(f)


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
