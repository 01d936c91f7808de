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

Shared rules live here: ``is_int``, the one test of an integer input, and
its forms ``all_int`` and ``all_int_rows``; ``balanced_digits``; ``Record``,
the one base of the frozen result classes (its fields are its annotations,
in order); and the cache policy, ``CACHE_SIZE`` and ``clear_caches``.

``LaurentPoly`` is dense: the lowest exponent and the tuple of the
coefficients from t^low to t^high, trimmed so that neither end is zero
(the zero polynomial is ``()``).  Shifts share the tuple, the reciprocal
reverses it, t -> t^k spreads it with one strided assignment, and
equality and hashing compare (low, tuple).  A span above ``MAX_SPAN``
is refused with ValueError before it is allocated, by every constructor
and operation; a huge exponent with a small span costs nothing.  The
public constructors (a dict {exponent: coefficient}, ``from_coeffs``,
``parse``) check their types; what this module builds itself goes
through the one trusted ``_dense``, which only trims zeros.  The
operators are the ones the library calls: ``*``, ``**`` to n >= 0,
``==`` and ``hash``, each between polynomials only (no ``+`` and no
unary ``-``; a scalar c multiplies as ``p * LaurentPoly({0: c})``).

The textual syntax round-trips bit-exactly through ``parse``/``str``:

>>> p = LaurentPoly({1: 3, 0: -7, -1: 3})
>>> str(p)
'3*t^1 - 7 + 3*t^-1'
>>> LaurentPoly.parse(str(p)) == p
True
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
import types

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


def all_int_rows(rows) -> bool:
    """all_int of every row of a matrix, by one type set over all its entries."""
    return {*map(type, itertools.chain.from_iterable(rows))} <= {int} or all(map(all_int, rows))


def balanced_digits(value: int, w: int, count: int) -> list[int]:
    """The `count` lowest digits of value in base 2^w, each in
    [-2^(w-1), 2^(w-1)): a digit at or above 2^(w-1) becomes negative and
    borrows one from the digits above."""
    digits, mask, half = [], (1 << w) - 1, 1 << (w - 1)
    for _ in range(count):
        digit = value & mask
        value >>= w
        if digit >= half:
            digit -= 1 << w
            value += 1
        digits.append(digit)
    return digits


class Record:
    """A frozen record: the base of every result class of the package.

    A subclass's fields are its own annotations, in order, and a class
    attribute of a field's name is that field's default.  Each subclass
    gets one ``__init__``, compiled once from a short ``def``: it takes
    the fields by position or keyword, sets every one with
    ``object.__setattr__`` and then runs the class's ``__post_init__``,
    if it has one.  Records are equal when their classes are the same and
    their field tuples equal, hash by the field tuple, print as
    ``Name(field=value, ...)`` and refuse assignment and deletion.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = operator.attrgetter(*names)
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
        body = [f" _set(self, {n!r}, {n})\n" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append(" self.__post_init__()\n")
        scope = {"_set": object.__setattr__, "_d": defaults}
        exec(f"def __init__(self, {params}):\n{''.join(body)}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# the widest span high - low a polynomial may have: the layout keeps one
# coefficient per exponent of the span, so every constructor and
# operation refuses a wider one before it allocates
MAX_SPAN = 1 << 16


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"span {span} is above MAX_SPAN = {MAX_SPAN}")


class LaurentPoly:
    """sum(c_e * t**e) with int coefficients; immutable after construction.

    Kept dense: the lowest exponent and the tuple of coefficients from
    t^low to t^high, with no zero at either end; the zero polynomial is
    low 0 and ().  Every instance comes from ``_dense``."""

    __slots__ = ("_low", "_c")

    def __new__(cls, coeffs=None):
        coeffs = coeffs or {}
        # one pass over the types, not a call per term: plain ints pass
        # at once, and anything else goes through is_int term by term
        if not {*map(type, coeffs), *map(type, coeffs.values())} <= {int}:
            for e, v in coeffs.items():
                if not is_int(e):
                    raise TypeError(f"exponent {e!r} must be an int")
                if not is_int(v):
                    raise TypeError(f"coefficient {v!r} must be an int")
        exponents = [e for e, v in coeffs.items() if v]
        if not exponents:
            return _dense(0, ())
        low, high = min(exponents), max(exponents)
        _check_span(high - low)
        c = [0] * (high - low + 1)
        for e in exponents:
            c[e - low] = coeffs[e]
        return _dense(low, c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _dense(0, (1,))

    @classmethod
    def from_coeffs(cls, coeffs, low: int = 0) -> "LaurentPoly":
        """Build from a sequence of int coefficients for t^low, t^(low+1), ..."""
        if not (all_int(coeffs) and is_int(low)):
            raise TypeError("coefficients and the lowest exponent must be ints")
        _check_span(len(coeffs) - 1)
        return _dense(low, coeffs)

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
        """Sorted (exponent, coefficient) pairs of the nonzero terms,
        ascending exponent."""
        return [(e, v) for e, v in enumerate(self._c, self._low) if v]

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^low() .. t^high(), a tuple; () for zero."""
        return self._c

    @property
    def is_zero(self) -> bool:
        return not self._c

    def low(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no lowest exponent")
        return self._low

    def high(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no highest exponent")
        return self._low + len(self._c) - 1

    def span(self) -> int:
        """Difference between highest and lowest exponent (0 for monomials)."""
        return self.high() - self.low()

    def content(self) -> int:
        """gcd of the coefficients, positive (0 for the zero polynomial)."""
        return math.gcd(*self._c)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        x, y = self._c, other._c
        _check_span(len(x) + len(y) - 2)
        c = [0] * (len(x) + len(y) - 1)
        terms = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in terms:
                    c[i + j] += a * b
        return _dense(self._low + other._low, c)

    def __pow__(self, n: int):
        if not is_int(n) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        _check_span(n * (len(self._c) - 1))
        result, base = LaurentPoly.one(), self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- normal forms ------------------------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if not is_int(k):
            raise TypeError(f"shift {k!r} must be an int")
        return _dense(self._low + k, self._c)

    def reciprocal(self) -> "LaurentPoly":
        """t -> t^-1.  An exact involution."""
        return _dense(1 - self._low - len(self._c), self._c[::-1])

    def substitute_power(self, k: int) -> "LaurentPoly":
        """t -> t^k for k >= 1; exponents multiply, coefficients unchanged."""
        if not is_int(k) or k < 1:
            raise ValueError("substitution power must be an int >= 1")
        _check_span((len(self._c) - 1) * k)
        c = [0] * ((len(self._c) - 1) * k + 1)
        c[::k] = self._c
        return _dense(self._low * k, c)

    def associate_normal(self) -> "LaurentPoly":
        """Canonical representative up to units +-t^g: lowest exponent 0,
        positive leading coefficient.  Content is preserved."""
        c = self._c
        if c and c[-1] < 0:
            c = tuple(map(operator.neg, c))
        return _dense(0, c)

    # -- comparison / output -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._low == other._low and self._c == other._c

    def __hash__(self):
        return hash((self._low, self._c))

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in reversed(self.items()):
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


def _dense(low: int, coeffs) -> LaurentPoly:
    """The polynomial sum(coeffs[i] * t**(low + i)), trusted: coeffs is a
    list or tuple of ints within MAX_SPAN, and only its zeros at either
    end are trimmed (a tuple with none is kept as it is)."""
    start, stop = 0, len(coeffs)
    while start < stop and not coeffs[start]:
        start += 1
    while stop > start and not coeffs[stop - 1]:
        stop -= 1
    p = object.__new__(LaurentPoly)
    p._low = low + start if start < stop else 0
    p._c = tuple(coeffs[start:stop])
    return p


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
    constant term upward (a factor's lowest exponent is 0)."""
    return (p.high(), p._c)


class Factorization(Record):
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
        content * prod ||q||_1^m), one integer product, and its span + 1
        balanced digits in base 2^w as the coefficients."""
        span = sum((len(q._c) - 1) * m for q, m in self.factors)
        _check_span(span)
        bound = self.content
        for q, m in self.factors:
            bound *= sum(map(abs, q._c)) ** m
        w = bound.bit_length() + 1
        value, power = self.sign * self.content, self.power
        for q, m in self.factors:
            at = 0
            for c in reversed(q._c):
                at = (at << w) + c
            value *= at**m
            power += q._low * m
        return _dense(power, balanced_digits(value, w, span + 1))

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
    process, in an LRU of ``CACHE_SIZE`` entries; hit or miss, the
    result is multiplied out again and must reproduce a exactly.

    >>> f = factor(LaurentPoly.parse("t^4 - 3*t^2 + 1"))
    >>> [str(q) for q, m in f.factors]
    ['1*t^2 - 1*t^1 - 1', '1*t^2 + 1*t^1 - 1']
    """
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    c, content = a._c, a.content()
    sign = 1 if c[-1] > 0 else -1
    unit = sign * content
    b = c if unit == 1 else tuple(v // unit for v in c)
    result = Factorization(sign=sign, power=a._low, content=content, factors=_primitive_factors(b))
    if result.expand() != a:
        raise ArithmeticError(f"factorization of {a} failed to round-trip")
    return result


# The size of each cache of results keyed by input, an LRU.  Their largest
# working sets, in keys, after one in-process 20 s run of each workload at
# seeds 1 and 3 and after each README form:
#   cache                        sigma-sweep  cable-obstruct  diagram-homology  README form
#   cabling._pairing_at                    0              87                 0            4
#   laurent._primitive_factors             0              57                 0            6
#   intfactor._factors_at                  0              46                 0            6
#   seifert._circle_arcs                  21              25                 0            2
#   cyclotomic.cos2pi_bounds              34              16                 0            6
# diagram-homology fills only legendrian's _cabled, with its own size and
# reason: 36 keys of 64.
# A fox-milnor call within the CLI's degree bound asks at most 74 (q, j) of
# _factors_at: 2 roots, and j = 2..k_max*g at each factor q of a root.
CACHE_SIZE = 256


def clear_caches():
    """Empty each global lru_cache with a finite maxsize in the concordance
    modules that have run; an unbounded one holds a constant (pi at a
    precision, Phi_b, the lift table of a genus for seifert's Alexander
    read-out) and stays.  Modules and globals are told by type(), as
    reading a lazy module that has not run (isinstance reads __class__) runs it."""
    lru = type(functools.lru_cache()(lambda: None))
    for name, module in list(sys.modules.items()):
        if name.startswith("concordance.") and type(module) is types.ModuleType:
            for value in vars(module).values():
                if type(value) is lru and value.cache_parameters()["maxsize"] is not None:
                    value.cache_clear()


@functools.lru_cache(maxsize=CACHE_SIZE)
def _primitive_factors(b: tuple) -> tuple:
    """The sorted (factor, multiplicity) pairs of a primitive part b."""
    # imported on first use: without a bytecode cache every module that
    # ``import concordance`` loads is compiled, and most commands never factor
    from .intfactor import factor_by_structure

    factors = [(_dense(0, f), mu) for f, mu in factor_by_structure(list(b)).items()]
    return tuple(sorted(factors, key=lambda fm: _factor_sort_key(fm[0])))


class FoxMilnorResult(Record):
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
    witness = _dense(0, (root,))
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
