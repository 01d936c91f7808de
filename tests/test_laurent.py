"""Laurent polynomial layer: normal forms, factorization, Fox-Milnor.

The Fox-Milnor decision procedure is checked against an independent
brute-force witness search (degree <= 4, coefficients in [-5, 5]) on a
fixed-seed corpus of products, per the acceptance contract.

sympy's factorizations of the twist polynomials at every power m = 2..36
are recorded in ``data/twist_factors.json``, since sympy takes seconds on
some of them; the recorder derives them all again:

    PYTHONPATH=src python tests/test_laurent.py
"""

import enum
import functools
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from concordance.laurent import Factorization, LaurentPoly, doteq, factor, fox_milnor_pairing

P = LaurentPoly.parse


# -- parser / printer --------------------------------------------------------


def test_print_canonical_form():
    p = LaurentPoly({1: 3, 0: -7, -1: 3})
    assert str(p) == "3*t^1 - 7 + 3*t^-1"


def test_parse_round_trip_is_bit_exact():
    for s in [
        "3*t^1 - 7 + 3*t^-1",
        "1*t^2 - 1*t^1 - 1",
        "-2*t^3 + 5 - 1*t^-4",
        "7",
        "-1",
        "0",
        "1*t^-2",
    ]:
        assert str(P(s)) == s


def test_parse_accepts_loose_variants():
    assert P("t") == LaurentPoly({1: 1})
    assert P("-t^2 + t") == LaurentPoly({2: -1, 1: 1})
    assert P("2t^2") == LaurentPoly({2: 2})
    assert P("t^2-t+1") == P("1*t^2 - 1*t^1 + 1")
    # coefficients are integers: a/b is not a term
    with pytest.raises(ValueError, match="cannot parse term"):
        P("3/2*t^1")


def test_parse_reads_every_spelling_of_zero_as_the_zero_polynomial():
    for s in ["0", " 0 ", "-0", "0*t^3"]:
        assert P(s) == LaurentPoly(), s


def test_linear_polynomials_are_irreducible_factors_of_themselves():
    # the leading coefficient 3*5*7*...*43 makes the candidate-prime
    # search skip the first thirteen odd primes
    from concordance.intfactor import irreducible_factors

    lead = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    for f in ([1, 1], [-1, 1], [2, 3], [-7, 3], [2, lead], [2 - lead, lead]):
        assert irreducible_factors(f) == [(tuple(f), 1)], f


def test_parse_rejects_garbage():
    for bad in ["", "t^", "3**t", "x+1", "1 + + 2", "t^1.5"]:
        with pytest.raises(ValueError):
            P(bad)


def test_parse_rejects_zero_denominator():
    # every a/b is rejected, a zero denominator among them
    for bad in ["1/0*t - 1 + 1/0*t^-1", "0/0", "-3/00*t^2", "4/2*t", "1/3"]:
        with pytest.raises(ValueError, match="cannot parse term"):
            P(bad)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})


def test_constructor_checks_every_term():
    # zero terms are dropped only after their types are checked
    for bad, message in [
        ({0: 0.0}, "coefficient 0.0"),
        ({0: 1, 1: False}, "coefficient False"),
        ({1.0: 1}, "exponent 1.0"),
        ({True: 1}, "exponent True"),
    ]:
        with pytest.raises(TypeError, match=message):
            LaurentPoly(bad)
    # an int subclass other than bool is an int
    one = enum.IntEnum("One", "ONE").ONE
    assert LaurentPoly({one: one, 0: 0}) == LaurentPoly({1: 1})
    # the other public routes to a polynomial check their ints too
    for call in (
        lambda: LaurentPoly.from_coeffs([1, 0.5]),
        lambda: LaurentPoly.from_coeffs([1, True]),
        lambda: LaurentPoly.from_coeffs([1, 2], low=1.0),
        lambda: LaurentPoly.one().shift(0.5),
    ):
        with pytest.raises(TypeError, match="must be (an int|ints)$"):
            call()
    assert LaurentPoly.from_coeffs([0, one, 0], low=one) == LaurentPoly({2: 1})


# -- arithmetic and normal forms ---------------------------------------------


def test_equality_with_non_integers_answers():
    # no polynomial equals a number, not even its constant: the comparison
    # answers, it does not raise
    assert not LaurentPoly.one() == 1
    assert not LaurentPoly.one() == True  # noqa: E712
    assert LaurentPoly.one() != False  # noqa: E712
    assert not LaurentPoly.one() == 1.0


def test_a_constant_is_a_key_of_its_own():
    # equal polynomials hash alike, and a constant is a set or dict key
    # apart from its int
    for c in (0, 1, -1, 7, -(2**70)):
        p = LaurentPoly({0: c})
        assert p == LaurentPoly({0: c}) and hash(p) == hash(LaurentPoly({0: c}))
        assert p != c and len({p, c}) == 2 and c not in {p: "poly"}
    assert len({LaurentPoly.one(), LaurentPoly.parse("1")}) == 1
    assert len({P("t^1"), P("t^-1"), P("t^1 + 1"), LaurentPoly.one(), LaurentPoly()}) == 5


def test_an_int_is_no_operand():
    # a scalar multiplies as a constant polynomial; no operator takes an int
    p = P("t^1 - 2")
    assert p * LaurentPoly({0: 3}) == P("3*t^1 - 6")
    for op in (lambda: p * 3, lambda: 3 * p, lambda: p * True, lambda: p + 1, lambda: 1 - p):
        with pytest.raises(TypeError):
            op()


def test_doteq_examples():
    assert doteq(P("1*t^1 - 1 + 1*t^-1"), P("t^2 - t + 1"))
    assert doteq(P("3*t^1 - 7 + 3*t^-1"), P("-3*t^2 + 7*t^1 - 3"))
    assert not doteq(P("t^2 - t + 1"), P("t^2 + t - 1"))
    assert doteq(LaurentPoly(), LaurentPoly())
    assert not doteq(LaurentPoly(), LaurentPoly.one())


def test_reciprocal_involution():
    p = P("3*t^2 - 7*t^1 + 1*t^-3")
    assert p.reciprocal().reciprocal() == p


def test_substitute_power_validates():
    with pytest.raises(ValueError):
        P("t").substitute_power(0)


# -- the dense layout ----------------------------------------------------------


def _random_terms(r):
    """Random {exponent: coefficient} terms: the zero polynomial, a
    monomial at a huge exponent, or up to eight consecutive terms from a
    random lowest exponent, some of them zero."""
    kind = r.random()
    if kind < 0.1:
        return {}
    if kind < 0.2:
        return {r.choice((1, -1)) * 10**12 + r.randint(-3, 3): r.choice((1, -1, 5))}
    low = r.randint(-6, 6)
    return {low + i: r.randint(-9, 9) for i in range(r.randint(1, 8))}


def _agrees(p, ref):
    return p.items() == ref.items() and p.coeffs == ref.dense() and str(p) == str(ref)


def test_every_method_agrees_with_the_dict_reference():
    from _oracles import ReferenceLaurentPoly

    r = random.Random(20261019)
    for _ in range(400):
        terms, other = _random_terms(r), _random_terms(r)
        a, ra = LaurentPoly(terms), ReferenceLaurentPoly(terms)
        b, rb = LaurentPoly(other), ReferenceLaurentPoly(other)
        k, m, n = r.randint(-5, 5), r.randint(1, 4), r.randint(0, 3)
        assert _agrees(a, ra), terms
        for got, want in (
            (a * b, ra * rb),
            (a**n, ra**n),
            (a.shift(k), ra.shift(k)),
            (a.reciprocal(), ra.reciprocal()),
            (a.substitute_power(m), ra.substitute_power(m)),
            (a.associate_normal(), ra.associate_normal()),
        ):
            assert _agrees(got, want), (terms, other, k, m, n)
        if ra.terms and rb.terms:
            # the Kronecker expansion against products taken term by term
            sign, content = r.choice((1, -1)), r.randint(1, 4)
            factors = ((a.associate_normal(), n), (b.associate_normal(), m))
            want = ReferenceLaurentPoly({k: sign * content})
            want = want * ra.associate_normal() ** n * rb.associate_normal() ** m
            assert _agrees(Factorization(sign, k, content, factors).expand(), want), (terms, other)
        assert a.is_zero == (not ra.terms) and a.content() == ra.content()
        if ra.terms:
            assert (a.low(), a.high(), a.span()) == (ra.low(), ra.high(), ra.high() - ra.low())
        else:
            for inspect in (a.low, a.high, a.span):
                with pytest.raises(ValueError, match="zero polynomial"):
                    inspect()
        # coefficients padded with zeros at both ends are trimmed
        low = ra.low() if ra.terms else k
        pad_low, pad_high = r.randint(0, 3), r.randint(0, 3)
        padded = LaurentPoly.from_coeffs([0] * pad_low + [*ra.dense()] + [0] * pad_high, low - pad_low)
        assert _agrees(padded, ra), (terms, pad_low, pad_high)
        # == as the reference's, and equal polynomials built apart hash alike
        assert (a == b) == (ra == rb)
        for same in (padded, P(str(a)), a.shift(k).shift(-k), a.reciprocal().reciprocal()):
            assert same == a and hash(same) == hash(a), terms


def test_huge_exponents_with_small_spans_cost_nothing():
    big = P("t^1000000000000")
    a = big * P("t^1 - 2")
    assert str(a) == "1*t^1000000000001 - 2*t^1000000000000"
    assert P(str(a)) == a and a.span() == 1
    assert a.reciprocal().low() == -(10**12) - 1
    assert (big**3).low() == big.substitute_power(3).low() == 3 * 10**12
    assert a.associate_normal() == P("t^1 - 2") and doteq(a, P("2 - t^1"))
    f = factor(a)
    assert f.power == 10**12 and f.expand() == a


def test_span_bound_is_sharp():
    from concordance.laurent import MAX_SPAN

    one = P("t^1 + 1")
    half = LaurentPoly({MAX_SPAN // 2: 1, 0: -1})
    edge = LaurentPoly({MAX_SPAN: 1, 0: -1})
    for built in (
        edge,
        LaurentPoly.from_coeffs([1] + [0] * (MAX_SPAN - 1) + [1]),
        P(f"t^{MAX_SPAN} + 1"),
        half * half,
        half**2,
        one.substitute_power(MAX_SPAN),
        Factorization(sign=1, power=0, content=1, factors=((half, 2),)).expand(),
    ):
        assert built.span() == MAX_SPAN
    for call in (
        lambda: LaurentPoly({MAX_SPAN + 1: 1, 0: -1}),
        lambda: LaurentPoly.from_coeffs([1] + [0] * MAX_SPAN + [1]),
        lambda: P(f"t^{MAX_SPAN + 1} + 1"),
        lambda: edge * one,
        lambda: half**3,
        lambda: one.substitute_power(MAX_SPAN + 1),
        lambda: Factorization(sign=1, power=0, content=1, factors=((half, 3),)).expand(),
    ):
        with pytest.raises(ValueError, match=f"above MAX_SPAN = {MAX_SPAN}"):
            call()


HUGE_SPANS = """
import time
from concordance.laurent import Factorization, LaurentPoly

P = LaurentPoly.parse
calls = {
    "parse": lambda: P("t^2000000000 - t^1000000000 + 1"),
    "dict": lambda: LaurentPoly({-(10**9): 1, 10**9: 1}),
    "product": lambda: P("t^60000 + 1") * P("t^60000 - 1"),
    "power": lambda: P("t^1 + 1") ** 10**9,
    "substitute_power": lambda: P("t^1 + 1").substitute_power(10**9),
    "expand": lambda: Factorization(1, 0, 1, ((P("t^1 + 1"), 10**9),)).expand(),
}
for name, call in calls.items():
    start = time.perf_counter()
    try:
        call()
        outcome = "answered"
    except ValueError as exc:
        outcome = str(exc)
    print(name, time.perf_counter() - start, outcome)
"""


def test_huge_spans_fail_fast():
    # in a child whose memory is capped: a span that slipped through the
    # bound would be allocated, a list of 10^9 coefficients or more
    from _oracles import run_capped

    done = run_capped(HUGE_SPANS)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    for line in lines:
        name, seconds, outcome = line.split(" ", 2)
        assert "above MAX_SPAN" in outcome and float(seconds) < 1.0, line


# -- factorization ------------------------------------------------------------


def test_factor_spec_products():
    f = factor(P("t^4 - 3*t^2 + 1"))
    assert f.sign == 1 and f.content == 1 and f.power == 0
    assert [(str(q), m) for q, m in f.factors] == [
        ("1*t^2 - 1*t^1 - 1", 1),
        ("1*t^2 + 1*t^1 - 1", 1),
    ]


def test_factor_orders_deterministically():
    a = P("t^1 - 2") * P("1 - 2*t^1")
    f = factor(a)
    assert f.sign == -1 and f.content == 1
    assert [(str(q), m) for q, m in f.factors] == [
        ("1*t^1 - 2", 1),
        ("2*t^1 - 1", 1),
    ]


def test_factor_laurent_input_records_unit_power():
    f = factor(P("3*t^1 - 7 + 3*t^-1"))
    assert f.power == -1
    assert [(str(q), m) for q, m in f.factors] == [("3*t^2 - 7*t^1 + 3", 1)]
    assert f.expand() == P("3*t^1 - 7 + 3*t^-1")


def test_factor_content_and_multiplicity():
    a = LaurentPoly({0: 12}) * P("t^1 - 1") ** 2
    f = factor(a)
    assert f.content == 12 and f.sign == 1
    assert [(str(q), m) for q, m in f.factors] == [("1*t^1 - 1", 2)]


def test_factor_rejects_zero_and_rationals():
    with pytest.raises(ValueError):
        factor(LaurentPoly())
    # a rational coefficient never reaches factor: LaurentPoly holds ints
    for bad in (Fraction(1, 2), Fraction(2, 1), True):
        with pytest.raises(TypeError, match="must be an int"):
            LaurentPoly({0: bad})
    with pytest.raises(TypeError):
        P("t^1 - 1") * Fraction(1, 2)


# -- Fox-Milnor pairing --------------------------------------------------------


def test_fox_milnor_spec_yes_case():
    r = fox_milnor_pairing(P("t^4 - 3*t^2 + 1"))
    assert r.is_norm
    assert doteq(r.witness, P("t^2 - t - 1"))


def test_fox_milnor_spec_no_case_names_violator():
    a = P("3*t^2 - 7*t^1 + 3") * P("3*t^4 - 7*t^2 + 3")
    r = fox_milnor_pairing(a)
    assert not r.is_norm
    assert str(r.violating_factor) == "3*t^2 - 7*t^1 + 3"
    assert r.violating_multiplicity == 1
    assert r.reason == "self-reciprocal factor with odd multiplicity"


def test_fox_milnor_names_an_unmatched_factor():
    r = fox_milnor_pairing(P("t^1 - 2"))
    assert not r.is_norm
    assert (str(r.violating_factor), r.violating_multiplicity) == ("1*t^1 - 2", 1)
    assert r.reason == "factor unmatched by its reciprocal"


def test_fox_milnor_reciprocal_pair_case():
    a = P("t^1 - 2") * P("1 - 2*t^1")
    r = fox_milnor_pairing(a)
    assert r.is_norm
    assert doteq(r.witness, P("t^1 - 2"))


def test_fox_milnor_square_content_condition():
    # 2*(t-1)^2 pairs factors correctly but the content 2 is not a square.
    r = fox_milnor_pairing(LaurentPoly({0: 2}) * P("t^1 - 1") ** 2)
    assert not r.is_norm and r.violating_content == 2
    assert r.reason == "content is not a perfect square"
    r = fox_milnor_pairing(LaurentPoly({0: 4}) * P("t^1 - 1") ** 2)
    assert r.is_norm and r.reason is None


def test_fox_milnor_takes_a_factorization_that_multiplies_back():
    a, b = P("t^4 - 3*t^2 + 1"), P("t^2 - 3*t^1 + 1")
    assert fox_milnor_pairing(a, factor(a)) == fox_milnor_pairing(a)
    assert fox_milnor_pairing(a * b, factor(a) * factor(b)) == fox_milnor_pairing(a * b)
    with pytest.raises(ArithmeticError, match="does not multiply back"):
        fox_milnor_pairing(a, factor(b))


# -- brute-force oracle equivalence (shared oracle in _oracles.py) -------------


def test_fox_milnor_agrees_with_brute_force_on_200_products():
    from _oracles import fox_milnor_disagreements, fox_milnor_oracle_cases

    cases = fox_milnor_oracle_cases(20260818)
    assert len(cases) == 200
    assert not fox_milnor_disagreements(cases)


# -- property tests ------------------------------------------------------------

_small_laurent = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)

_nonzero_laurent = _small_laurent.filter(lambda p: not p.is_zero)


@given(_nonzero_laurent, st.integers(min_value=-3, max_value=3), st.sampled_from([1, -1]))
def test_doteq_ignores_units(a, k, s):
    assert doteq(a, a.shift(k) * LaurentPoly({0: s}))


@given(_small_laurent)
def test_parse_str_round_trip(a):
    assert LaurentPoly.parse(str(a)) == a


@given(_nonzero_laurent, _nonzero_laurent, st.integers(min_value=1, max_value=4))
def test_substitute_power_is_multiplicative(a, b, k):
    assert (a * b).substitute_power(k) == a.substitute_power(k) * b.substitute_power(k)


@settings(deadline=None, max_examples=60)
@given(_nonzero_laurent)
def test_factor_round_trip(a):
    assert factor(a).expand() == a


@settings(deadline=None, max_examples=60)
@given(_nonzero_laurent)
def test_norms_always_pass_fox_milnor(a):
    r = fox_milnor_pairing(a * a.reciprocal())
    assert r.is_norm
    assert doteq(a * a.reciprocal(), r.witness * r.witness.reciprocal())


# -- factor against the whole-product oracle -----------------------------------


def _twist(n):
    """Alexander polynomial of the n-twist knot: n*t - (2n + 1) + n/t."""
    return LaurentPoly({1: n, 0: -(2 * n + 1), -1: n})


def _torus_2(q):
    """Alexander polynomial of T(2, q), q odd: sum of (-t)^i, balanced."""
    return LaurentPoly({i - (q - 1) // 2: (-1) ** i for i in range(q)})


def _fox_milnor_products(r, count):
    """count products delta_0(t^k) * delta_1(t^k), k <= 8, over twist
    knots, T(2, q), their sums and their (p,1)-cables, degree <= 64."""
    knots = [_twist(n) for n in (-4, -3, -2, -1, 1, 2, 3, 4)]
    knots += [_torus_2(q) for q in (3, 5, 7)]
    products = []
    while len(products) < count:
        pair = []
        for _ in range(2):
            delta = r.choice(knots)
            if r.random() < 0.3:
                delta = delta * r.choice(knots)
            if r.random() < 0.3:
                delta = delta.substitute_power(r.choice((2, 3)))
            pair.append(delta)
        k = r.randint(1, 8)
        product = pair[0].substitute_power(k) * pair[1].substitute_power(k)
        if product.span() <= 64:
            products.append(product)
    return products


def _random_polys(r, count):
    """Random integer polynomials, half of them self-reciprocal, with
    random content, sign, power of t, repeated factors and t -> t^m."""
    polys = []
    for i in range(count):
        n = r.randint(1, 5)
        half = [r.randint(-6, 6) for _ in range(n)] + [r.randint(1, 6)]
        if i % 2:
            coeffs = half
        else:
            coeffs = half[::-1] + half[1:]
        a = LaurentPoly.from_coeffs(coeffs)
        if r.random() < 0.3:
            a = a * a
        if r.random() < 0.4:
            a = a.substitute_power(r.randint(2, 4))
        polys.append(a.shift(r.randint(-3, 3)) * LaurentPoly({0: r.choice((1, -1, 2, -6))}))
    return polys


_BRANCH_CASES = [
    # Phi_e(t^m): Phi_6(t^4) * Phi_5(t^3), and the trefoil against its cable
    LaurentPoly.from_coeffs([1, 0, 0, 0, -1, 0, 0, 0, 1])
    * LaurentPoly.from_coeffs([1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1]),
    _torus_2(3).substitute_power(6) * _torus_2(3).substitute_power(12),
    # certified lifts: the 3-twist knot at k = 5, 5_2 against its (4,1)-cable
    _twist(3).substitute_power(5),
    _twist(-2).substitute_power(4) * _twist(-2),
    # uncertified reducible lifts: the figure-eight at even m
    _twist(1).substitute_power(2),
    _twist(1).substitute_power(6) * _twist(1).substitute_power(4),
    # non-self-reciprocal pair: the 2-twist knot, (2t - 1)(t - 2), at m = 3
    _twist(2).substitute_power(3),
    # (t - 1)^2, t + 1, content > 1, negative leading coefficient
    P("t^1 - 1") ** 2,
    P("t^1 + 1"),
    LaurentPoly({-3: -6}) * P("t^1 - 1") ** 2 * P("t^1 + 1"),
    LaurentPoly({2: 4}) * _twist(1).substitute_power(3) ** 3,
    LaurentPoly({0: -5}),
]


def _swinnerton_dyer(ps):
    """The minimal polynomial of sum(sqrt(p) for p in ps), of degree
    2^len(ps); it splits into factors of degree <= 2 modulo every prime."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.minimal_polynomial(sum(map(sympy.sqrt, ps)), x), x)
    return LaurentPoly.from_coeffs([int(c) for c in reversed(poly.all_coeffs())])


def _trace_lift(g):
    """t^n * g(t + 1/t) for g of degree n, as a balanced Laurent polynomial."""
    coeffs = {}
    for j, gj in g.items():
        # (t + 1/t)^j = sum over k of C(j, k) * t^(j - 2k)
        for k in range(j + 1):
            coeffs[j - 2 * k] = coeffs.get(j - 2 * k, 0) + gj * math.comb(j, k)
    return LaurentPoly(coeffs)


def _many_modular_factor_cases(r):
    """Swinnerton-Dyer polynomials of degree 8 and 16, a lift and a
    product of them, and seeded products of lifts with non-monic and
    repeated factors."""
    sd8 = _swinnerton_dyer((2, 3, 5))
    cases = [sd8, _swinnerton_dyer((2, 3, 5, 7)), _trace_lift(sd8)]
    cases.append(sd8 * _swinnerton_dyer((2, 3, 7)))
    for _ in range(20):
        a = LaurentPoly.one()
        for _ in range(r.randint(2, 4)):
            g = LaurentPoly.from_coeffs(
                [r.randint(-5, 5) for _ in range(r.randint(1, 3))] + [r.randint(1, 4)]
            )
            a = a * (_trace_lift(g) if r.random() < 0.5 else g) ** r.randint(1, 2)
        cases.append(a * LaurentPoly({0: r.choice((1, -3, 4))}))
    return cases


def test_factor_matches_whole_product_route():
    from _oracles import sympy_factor

    r = random.Random(20261018)
    cases = _BRANCH_CASES + _fox_milnor_products(r, 60) + _random_polys(r, 60)
    cases += _many_modular_factor_cases(r)
    expected = [sympy_factor(a) for a in cases]
    assert [a for a, f in zip(cases, expected) if factor(a) != f] == []
    # a second pass answers from the cache, which is keyed by the
    # primitive part: sign, content and power must come from a itself
    from concordance import laurent

    misses = laurent._primitive_factors.cache_info().misses
    unit = LaurentPoly({5: -3})
    assert [a for a, f in zip(cases, expected) if factor(a) != f] == []
    # unit * a = -3 t^5 * a: the sign flips, the content triples, the power
    # grows by 5 and the factors stay
    unit_expected = [
        Factorization(sign=-f.sign, power=f.power + 5, content=3 * f.content, factors=f.factors)
        for f in expected
    ]
    assert [a for a, f in zip(cases, unit_expected) if factor(unit * a) != f] == []
    assert laurent._primitive_factors.cache_info().misses == misses


def test_factor_sends_only_trace_polynomials_and_uncertified_lifts(monkeypatch):
    from _oracles import clear_caches
    from concordance import intfactor

    clear_caches()  # a warm cache would send nothing
    degrees = []
    whole = intfactor.irreducible_factors

    def spy(b):
        degrees.append(len(b) - 1)
        return whole(b)

    monkeypatch.setattr(intfactor, "irreducible_factors", spy)
    # trefoil against its cable at k = 20: b = Phi_6 * Phi_12 has g of
    # degree 3, both lifts are certified, and both factors are cyclotomic
    factor(_torus_2(3).substitute_power(20) * _torus_2(3).substitute_power(40))
    assert degrees == [3]
    # the 3-twist knot at k = 36: its g is linear and never sent; Capelli's
    # steps b(t^2), b(t^3) and b(t^4) are each certified irreducible by a
    # simple root that is no square, cube, or square mod a prime, so
    # b(t^36) is irreducible and nothing is sent
    degrees.clear()
    factor(_twist(3).substitute_power(36))
    assert degrees == []
    # the figure-eight at m = 2: x^2 - 5 lifts to (t^2 - t - 1)(t^2 + t - 1),
    # which no certificate covers, so the lift is factored
    degrees.clear()
    assert len(factor(_twist(1).substitute_power(2)).factors) == 2
    assert degrees == [2, 4]


# Capelli's steps decide q(t^m) irreducible from q(t^d) at the primes d | m
# (and d = 4 when 4 | m); a reducible q(t^m) reported irreducible would
# still round-trip, so only a second factorizer can catch it.  The twist
# polynomials n*t - (2n + 1) + n/t include the figure-eight's t^2 - 3t + 1
# (n = 1), whose q(t^2) splits, and -Phi_6 (n = -1).
_TWISTS = [n for n in range(-6, 7) if n]
_CAPELLI_POWERS = range(2, 37)
TWIST_FACTORS = Path(__file__).resolve().parent / "data" / "twist_factors.json"


def record_twist_factors():
    """sympy's factorization of each twist polynomial at each power, by
    "n m": [sign, power, content, [[coefficients from t^0 up,
    multiplicity], ...]]."""
    from _oracles import sympy_factor

    recorded = {}
    for n in _TWISTS:
        for m in _CAPELLI_POWERS:
            f = sympy_factor(_twist(n).substitute_power(m))
            recorded[f"{n} {m}"] = [f.sign, f.power, f.content, [[list(q.coeffs), mu] for q, mu in f.factors]]
    return recorded


@functools.cache
def _recorded_twist_factors():
    return json.loads(TWIST_FACTORS.read_text())


def _sympy_twist_at(n, m):
    """sympy's factorization of the n-twist polynomial at t^m, as recorded."""
    sign, power, content, factors = _recorded_twist_factors()[f"{n} {m}"]
    return Factorization(
        sign=sign, power=power, content=content,
        factors=tuple((LaurentPoly.from_coeffs(c), mu) for c, mu in factors),
    )


@pytest.mark.parametrize("n", _TWISTS)
def test_a_twist_polynomial_at_every_power_matches_sympy(n):
    assert [m for m in _CAPELLI_POWERS if factor(_twist(n).substitute_power(m)) != _sympy_twist_at(n, m)] == []


def _merged(f, g):
    """The factorization of a product from those of its two parts, by
    unique factorization, in the order of ``Factorization``."""
    counts = dict(f.factors)
    for q, mu in g.factors:
        counts[q] = counts.get(q, 0) + mu
    return Factorization(
        sign=f.sign * g.sign, power=f.power + g.power, content=f.content * g.content,
        factors=tuple(sorted(counts.items(), key=lambda qm: (len(qm[0].coeffs), qm[0].coeffs))),
    )


def test_products_of_twist_polynomials_at_every_power_match_sympy():
    # each pair of twist polynomials at each m, against sympy's factors of
    # the two parts; m runs outermost, so every q(t^d) a step needs stays
    # in the caches while its m is factored
    pairs = list(combinations(_TWISTS, 2))
    wrong = [
        (n0, n1, m)
        for m in _CAPELLI_POWERS
        for n0, n1 in pairs
        if factor((_twist(n0) * _twist(n1)).substitute_power(m))
        != _merged(_sympy_twist_at(n0, m), _sympy_twist_at(n1, m))
    ]
    assert wrong == []


def test_the_fourth_power_step_splits_what_no_prime_step_splits():
    # x^4 - a splits over K when a is in -4K^4 although a is no square:
    # t + 4 at t^2 stays irreducible, at t^4 it is (t^2 - 2t + 2)(t^2 + 2t + 2)
    from _oracles import sympy_factor

    cases = [P("t^8 + 4"), P("t^12 + 4"), P("4*t^8 + 1")]
    assert [a for a in cases if factor(a) != sympy_factor(a)] == []
    assert [str(q) for q, _ in factor(cases[0]).factors] == ["1*t^4 - 2*t^2 + 2", "1*t^4 + 2*t^2 + 2"]


def test_capelli_certificates_cover_no_split():
    # q(t^j) splits when alpha is a j-th power (a cube for t^2 - 18t + 1, a
    # square for the figure-eight's t^2 - 3t + 1) or, at j = 4, in -4K^4
    # (t + 4): factor splits each, and no prime certifies any
    from concordance import intfactor

    splits = {
        "t^6 - 18*t^3 + 1": ["1*t^2 - 3*t^1 + 1", "1*t^4 + 3*t^3 + 8*t^2 + 3*t^1 + 1"],
        "t^4 - 3*t^2 + 1": ["1*t^2 - 1*t^1 - 1", "1*t^2 + 1*t^1 - 1"],
        "t^8 - 3*t^4 + 1": ["1*t^4 - 1*t^2 - 1", "1*t^4 + 1*t^2 - 1"],
        "t^4 + 4": ["1*t^2 - 2*t^1 + 2", "1*t^2 + 2*t^1 + 2"],
    }
    assert {a: [str(q) for q, _ in factor(P(a)).factors] for a in splits} == splits
    for q, j in [((1, -18, 1), 3), ((1, -3, 1), 2), ((1, -3, 1), 4), ((4, 1), 4)]:
        assert not intfactor._capelli_certified(q, j), (q, j)
    # the 3-twist knot's q = 3t^2 - 7t + 3 is certified at every j asked
    assert all(intfactor._capelli_certified((3, -7, 3), j) for j in (2, 3, 4, 5, 7))


def test_recombination_cap_raises_a_named_input_error():
    from concordance.intfactor import MAX_MODULAR_FACTORS, TooManyModularFactors

    # the trace polynomial prod SD(x + c), SD = x^4 - 10x^2 + 1, c = 0..8,
    # has no factor of degree < 4 over Z and at least 18 modular factors
    # at every prime: past the cap once the single factors are tried
    g = LaurentPoly.one()
    for c in range(9):
        # SD(t + c), expanded
        g = g * LaurentPoly.from_coeffs([c**4 - 10 * c**2 + 1, 4 * c**3 - 20 * c, 6 * c**2 - 10, 4 * c, 1])
    assert issubclass(TooManyModularFactors, ValueError)
    with pytest.raises(TooManyModularFactors, match=f"above {MAX_MODULAR_FACTORS}"):
        factor(_trace_lift(g))
    # within the cap: SD of degree 16 has 8 modular factors of degree 2
    assert len(factor(_swinnerton_dyer((2, 3, 5, 7))).factors) == 1


# -- the integer rule ----------------------------------------------------------


def _integer_parameter_cases():
    """One case per integer parameter: a call of the library with the
    parameter set to b, and the message that rejects a bad b."""
    from concordance import cabling, legendrian, surgery
    from concordance.seifert import SeifertMatrix, signature_function

    trefoil = SeifertMatrix([[-1, 1], [0, -1]], name="RH-trefoil")
    K = cabling.KnotProfile("RH-trefoil", seifert=trefoil)
    front = legendrian.FrontDiagram([("L", 0), ("R", 0)])
    inv = legendrian.LegendrianInvariants(1, 0)
    pres = surgery.satellite_cobordism_presentation(2)
    group = surgery.first_homology(pres)
    cases = {
        "LaurentPoly.__pow__": (lambda b: P("t^1") ** b, "exponent must be"),
        "LaurentPoly.substitute_power": (
            lambda b: P("t^1").substitute_power(b), "substitution power"),
        "cable_profile": (lambda b: cabling.cable_profile(K, b), "cable parameter p"),
        "KnotProfile.cable_of": (
            lambda b: cabling.KnotProfile("c", cable_of=(K, b)), "cable_of must be"),
        "finite_order_obstruction": (
            lambda b: cabling.finite_order_obstruction(K, b), "integer p >= 2"),
        "fox_milnor_obstruction": (
            lambda b: cabling.fox_milnor_obstruction(K, K, k_max=b), "k_max must be"),
        "SignatureFunction.pullback": (
            lambda b: signature_function(trefoil).pullback(b), "cable parameter p"),
        "FrontDiagram.seam_strands": (
            lambda b: legendrian.FrontDiagram([], seam_strands=b), "seam_strands must be"),
        "cable_front": (lambda b: legendrian.cable_front(front, b), "integer n >= 1"),
        "stabilize": (lambda b: legendrian.stabilize(inv, "positive", b), "count must be"),
        "localize": (lambda b: surgery.localize(group, b), "integer p >= 1"),
        "cobordism_meridian_check": (
            lambda b: surgery.cobordism_meridian_check(pres, "mu_K", "mu_Ptilde", b),
            "integer p >= 1"),
        "satellite_cobordism_presentation": (
            lambda b: surgery.satellite_cobordism_presentation(b), "integer p >= 1"),
    }
    return [pytest.param(call, message, id=name) for name, (call, message) in cases.items()]


@pytest.mark.parametrize("call, message", _integer_parameter_cases())
def test_bools_are_not_integer_parameters(call, message):
    # isinstance(True, int) holds, yet no integer parameter is a bool
    with pytest.raises(ValueError, match=message):
        call(True)


def _angle_cases():
    """One case per angle or point input: a call of the library with a
    float or a bool where an exact angle or point belongs."""
    from concordance.seifert import (
        RootOfUnity, SeifertMatrix, levine_tristram, signature_function,
    )

    trefoil = SeifertMatrix([[-1, 1], [0, -1]])
    sig = signature_function(trefoil)
    cases = {
        "RootOfUnity-bool-numerator": lambda: RootOfUnity(True, 2),
        "RootOfUnity-bool-denominator": lambda: RootOfUnity(1, True),
        "RootOfUnity-float-numerator": lambda: RootOfUnity(0.5, 1),
        "levine_tristram-float": lambda: levine_tristram(trefoil, 0.1),
        "levine_tristram-bool": lambda: levine_tristram(trefoil, True),
        "evaluate-float": lambda: sig.evaluate(0.5),
        "evaluate-bool": lambda: sig.evaluate(True),
        "is_jump-float": lambda: sig.is_jump(1 / 6),
    }
    return [pytest.param(call, id=name) for name, call in cases.items()]


@pytest.mark.parametrize("call", _angle_cases())
def test_floats_and_bools_are_not_angles(call):
    # no float decides an angle: 0.1 is the binary fraction
    # 3602879701896397/36028797018963968, not 1/10, and True is no integer
    with pytest.raises(TypeError):
        call()


if __name__ == "__main__":
    # one line per entry: the factors of q(t^36) run to 145 coefficients
    entries = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in record_twist_factors().items()]
    TWIST_FACTORS.write_text("{\n" + ",\n".join(entries) + "\n}\n")
