"""Closed-form oracles and independent witness checks.

Nothing here imports ``concordance``: the oracles read the plain
descriptions made by ``families`` and the library's answers converted to
plain data (dicts of exponent -> coefficient, ints, tuples), and every
decision is made in exact integer or rational arithmetic.

- Alexander polynomials: Delta(T(2,q)) = (t^q + 1)/(t + 1), the twist knot
  [[-1, 1], [0, n]] has n*t - (2n + 1) + n/t, sums multiply, mirrors and
  congruences change nothing.
- Signatures: Litherland's jump set for T(2,q) (a drop of 2 at each angle
  (2j - 1)/(2q) below 1/2); a twist knot with n = -m < 0 drops by 2 at the
  angle whose cosine is (2m - 1)/(2m), decided with certified rational
  bounds on cos; signatures add under sums and negate under mirrors.
- Fox-Milnor: norm witnesses are multiplied out, violating factors are
  divided out with their multiplicity, and for knots whose polynomials are
  products of cyclotomic polynomials the whole verdict is predicted from
  the parity of each cyclotomic exponent.
- Smith normal form: the certificate U M V = D is multiplied out and the
  invariant factors are predicted from the block structure.
- Fronts: diagram-level tb and rot of a satellite are compared with Ng's
  formulas tb = w^2 tb(K) + tb(P), rot = w rot(K) + rot(P).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from families import matmul

SINGULAR = "singular"


# -- Laurent polynomials as {exponent: coefficient} ----------------------------

def lp_clean(a: dict) -> dict:
    return {e: c for e, c in a.items() if c}


def lp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return lp_clean(out)


def lp_power_sub(a: dict, k: int) -> dict:
    """t -> t^k."""
    return {e * k: c for e, c in a.items()}


def lp_reciprocal(a: dict) -> dict:
    return {-e: c for e, c in a.items()}


def lp_normal(a: dict) -> tuple:
    """Lowest exponent 0, positive leading coefficient; as a tuple."""
    if not a:
        return ()
    lo, hi = min(a), max(a)
    sign = 1 if a[hi] > 0 else -1
    return tuple(sign * a.get(e, 0) for e in range(lo, hi + 1))


def lp_doteq(a: dict, b: dict) -> bool:
    """Equal up to multiplication by +-t^k."""
    return lp_normal(a) == lp_normal(b)


def lp_balanced(a: dict) -> dict:
    coeffs = lp_normal(a)
    half = (len(coeffs) - 1) // 2
    return {e - half: c for e, c in enumerate(coeffs) if c}


_TERM = re.compile(r"^(\d+)(?:\*t\^(-?\d+))?$")


def lp_parse(text: str) -> dict:
    """Parse the library's printed form, e.g. ``3*t^1 - 7 + 3*t^-1``."""
    out: dict = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        m = _TERM.match(tok.lstrip("-"))
        if m is None:
            raise ValueError(f"cannot parse term {tok!r} of {text!r}")
        e = int(m.group(2)) if m.group(2) is not None else 0
        out[e] = out.get(e, 0) + sign * int(m.group(1))
    return lp_clean(out)


def _poly(a: dict) -> list:
    """Ascending coefficient list after shifting the lowest exponent to 0."""
    lo, hi = min(a), max(a)
    return [a.get(e, 0) for e in range(lo, hi + 1)]


def _divides(num: list, den: list):
    """Exact quotient num / den over Q if it has remainder zero, else None."""
    num = [Fraction(c) for c in num]
    dl = len(den) - 1
    if len(num) - 1 < dl:
        return None
    quot = [Fraction(0)] * (len(num) - dl)
    for i in range(len(num) - 1, dl - 1, -1):
        q = num[i] / den[-1]
        quot[i - dl] = q
        for j, d in enumerate(den):
            num[i - dl + j] -= q * d
    if any(num[:dl]):
        return None
    return quot


def multiplicity(factor: dict, a: dict) -> int:
    """Largest m with factor^m dividing a (factor non-constant)."""
    num, den = _poly(a), _poly(factor)
    m = 0
    while True:
        q = _divides(num, den)
        if q is None:
            return m
        num, m = q, m + 1


def content(a: dict) -> int:
    return math.gcd(*a.values()) if a else 0


# -- knots: Alexander polynomials ----------------------------------------------

def summand_delta(s) -> dict:
    kind, n, _ = s
    if kind == "torus":
        half = (n - 1) // 2
        return {k - half: (-1) ** k for k in range(n)}
    return lp_clean({1: n, 0: -(2 * n + 1), -1: n})


def knot_delta(summands) -> dict:
    out = {0: 1}
    for s in summands:
        out = lp_mul(out, summand_delta(s))
    return lp_balanced(out)


# -- certified cosines ---------------------------------------------------------

def _atan_inv(n: int, scale: int) -> tuple[int, int]:
    """floor(atan(1/n) * scale) up to the returned error bound in units."""
    total, k, power, terms = 0, 0, scale // n, 0
    n2 = n * n
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= n2
        k += 1
        terms += 1
    return total, 2 * terms + 2


@lru_cache(maxsize=None)
def _pi_bounds(bits: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= pi * 2^bits <= hi (Machin's formula)."""
    guard = 32
    scale = 1 << (bits + guard)
    a, ea = _atan_inv(5, scale)
    b, eb = _atan_inv(239, scale)
    pi = 16 * a - 4 * b
    err = 16 * ea + 4 * eb
    return (pi - err) >> guard, ((pi + err) >> guard) + 1


def _cos_fixed(x: int, bits: int) -> tuple[int, int]:
    """Bounds on cos(x / 2^bits) * 2^bits for 0 <= x <= 4 * 2^bits."""
    one = 1 << bits
    total, term, k = one, one, 0
    while term:
        k += 1
        term = term * x // one * x // one // ((2 * k - 1) * (2 * k))
        total += -term if k % 2 else term
    err = 8 * k + 8
    return total - err, total + err


def cos2pi_bounds(theta: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= cos(2 pi theta) <= hi, certified."""
    theta = theta % 1
    if theta > Fraction(1, 2):
        theta = 1 - theta
    pi_lo, pi_hi = _pi_bounds(bits)
    x_lo = (2 * pi_lo * theta.numerator) // theta.denominator
    x_hi = -((-2 * pi_hi * theta.numerator) // theta.denominator)
    # cos decreases on [0, pi], so the ends of the x interval bound it
    lo, _ = _cos_fixed(x_hi, bits)
    _, hi = _cos_fixed(x_lo, bits)
    scale = 1 << bits
    return Fraction(lo, scale), Fraction(hi, scale)


def cos2pi_below(theta: Fraction, c: Fraction) -> bool:
    """Is cos(2 pi theta) < c?  pre: they differ."""
    bits = 96
    while bits <= 8192:
        lo, hi = cos2pi_bounds(theta, bits)
        if hi < c:
            return True
        if lo > c:
            return False
        bits *= 2
    raise ArithmeticError(f"cannot separate cos(2 pi {theta}) from {c}")


class Angle:
    """A jump angle in (0, 1/2): exact, or the angle whose cosine (of 2 pi
    times it) is the rational ``cos_value``."""

    def __init__(self, exact: Fraction | None = None, cos_value: Fraction | None = None):
        self.exact = exact
        self.cos_value = cos_value
        self.key = ("q", exact) if exact is not None else ("c", cos_value)

    def below(self, q: Fraction) -> bool:
        """Is this angle < q, for q in (0, 1/2]?  pre: q is not the angle."""
        if self.exact is not None:
            return self.exact < q
        lo, hi = self.bracket()
        if q <= lo or q >= hi:
            return q >= hi
        return cos2pi_below(q, self.cos_value)

    def equals(self, q: Fraction) -> bool:
        return self.exact is not None and self.exact == q

    def bracket(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        return _cos_angle_bracket(self.cos_value)


@lru_cache(maxsize=None)
def _cos_angle_bracket(c: Fraction) -> tuple[Fraction, Fraction]:
    """lo < angle < hi with hi - lo = 2^-40, by certified bisection."""
    lo, hi = Fraction(0), Fraction(1, 2)
    for _ in range(40):
        mid = (lo + hi) / 2
        if cos2pi_below(mid, c):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _angle_lt(a: Angle, b: Angle) -> bool:
    if a.exact is not None:
        return not b.equals(a.exact) and not b.below(a.exact)
    if b.exact is not None:
        return a.below(b.exact)
    # two irrational angles: larger cosine means smaller angle
    return a.cos_value > b.cos_value


@lru_cache(maxsize=None)
def summand_jumps(s) -> list[tuple[Angle, int]]:
    """(angle, height) for each jump in (0, 1/2) of one summand."""
    kind, n, mirrored = s
    sign = 1 if mirrored else -1
    if kind == "torus":
        return [(Angle(Fraction(2 * j - 1, 2 * n)), 2 * sign) for j in range(1, (n - 1) // 2 + 1)]
    if n >= 0:
        return []
    m = -n
    if m == 1:
        return [(Angle(Fraction(1, 6)), 2 * sign)]
    return [(Angle(cos_value=Fraction(2 * m - 1, 2 * m)), 2 * sign)]


def knot_jumps(summands) -> list[tuple[Angle, int]]:
    """Distinct jump angles of a sum in ascending order, heights added (a
    root of Delta whose jumps cancel keeps height 0)."""
    merged: dict = {}
    for s in summands:
        for angle, h in summand_jumps(s):
            if angle.key in merged:
                merged[angle.key] = (merged[angle.key][0], merged[angle.key][1] + h)
            else:
                merged[angle.key] = (angle, h)
    out: list = []
    for angle, h in merged.values():
        i = 0
        while i < len(out) and _angle_lt(out[i][0], angle):
            i += 1
        out.insert(i, (angle, h))
    return out


def sigma(summands, q) -> int | str:
    """Levine-Tristram signature at exp(2 pi i q), or SINGULAR at a root."""
    q = Fraction(q) % 1
    if q == 0:
        return 0
    if q > Fraction(1, 2):
        q = 1 - q
    total = 0
    for s in summands:
        for angle, h in summand_jumps(s):
            if angle.equals(q):
                return SINGULAR
            if angle.below(q):
                total += h
    return total


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational of small denominator in the open interval (lo, hi)."""
    fl = math.floor(lo)
    if fl + 1 < hi:
        return Fraction(fl + 1)
    x, y = lo - fl, hi - fl
    if x == 0:
        return fl + Fraction(1, math.floor(1 / y) + 1)
    return fl + 1 / simplest_between(1 / y, 1 / x)


def arc_samples(jumps) -> list[Fraction]:
    """One small-denominator rational angle inside each arc of (0, 1/2]."""
    samples, left = [], Fraction(0)
    for angle, _ in jumps:
        lo, hi = angle.bracket()
        if not left < lo:
            raise ArithmeticError("jump brackets overlap")
        samples.append(simplest_between(left, lo))
        left = hi
    return samples + [Fraction(1, 2)]


# -- scans in the library's documented order ------------------------------------

@lru_cache(maxsize=None)
def primes_upto(n: int) -> tuple:
    return tuple(b for b in range(2, n + 1) if all(b % d for d in range(2, math.isqrt(b) + 1)))


def finite_order_witness(summands, p: int, bound: int):
    """First (a, b, sigma(omega^p)) with sigma(omega) = 0, sigma(omega^p) != 0
    over prime b <= bound, increasing b then a, skipping jump denominators."""
    for b in primes_upto(bound):
        if p % b == 0 or sigma(summands, Fraction(1, b)) == SINGULAR:
            continue
        for a in range(1, b):
            if sigma(summands, Fraction(a, b)) != 0:
                continue
            power = sigma(summands, Fraction(p * a, b))
            if power != 0:
                return a, b, power
    return None


def signature_mismatch(sig0, sig1, bound: int):
    """First (a, b, s0, s1) with s0 != s1; sig0, sig1 map q to sigma."""
    for b in primes_upto(bound):
        one_b = Fraction(1, b)
        if sig0(one_b) == SINGULAR or sig1(one_b) == SINGULAR:
            continue
        for a in range(1, b):
            v0, v1 = sig0(Fraction(a, b)), sig1(Fraction(a, b))
            if v0 != v1:
                return a, b, v0, v1
    return None


# -- Fox-Milnor ------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def cyclotomic_exponents(summands, k: int) -> dict | None:
    """Exponent of each cyclotomic Phi_d in prod Delta_s(t^k), or None if a
    summand is not a product of cyclotomic polynomials."""
    exps: dict = {}
    for kind, n, _ in summands:
        if kind == "twist" and n == 0:
            continue
        if kind != "torus":
            return None
        # (t^{nk} + 1) / (t^k + 1): Phi_d for d | 2nk, d not | nk, over the same for k
        for d in _divisors(2 * n * k):
            if (n * k) % d:
                exps[d] = exps.get(d, 0) + 1
        for d in _divisors(2 * k):
            if k % d:
                exps[d] = exps.get(d, 0) - 1
    return exps


def fox_milnor_prediction(pair_summands, k_max: int):
    """For cyclotomic inputs: the first k <= k_max where the product is a
    norm (all exponents even), 0 if none; None if not predictable.
    ``pair_summands`` is a list of (summands, power) factors."""
    for k in range(1, k_max + 1):
        total: dict = {}
        for summands, power in pair_summands:
            exps = cyclotomic_exponents(summands, k * power)
            if exps is None:
                return None
            for d, e in exps.items():
                total[d] = total.get(d, 0) + e
        if all(e % 2 == 0 for e in total.values()):
            return k
    return 0


def fox_milnor_product(deltas, k: int) -> dict:
    out = {0: 1}
    for d in deltas:
        out = lp_mul(out, lp_power_sub(d, k))
    return out


def check_norm_witness(product: dict, f: dict) -> bool:
    return lp_doteq(lp_mul(f, lp_reciprocal(f)), product)


def check_violation(product: dict, data: dict) -> bool:
    """Re-verify a fox-milnor-violation witness against the product."""
    reason = data["reason"]
    if reason == "content is not a perfect square":
        c = data["content"]
        return content(product) == c and math.isqrt(c) ** 2 != c
    f, m = data["factor"], data["multiplicity"]
    if multiplicity(f, product) != m:
        return False
    star = lp_reciprocal(f)
    if reason == "self-reciprocal factor with odd multiplicity":
        return lp_doteq(f, star) and m % 2 == 1
    if reason == "factor unmatched by its reciprocal":
        return not lp_doteq(f, star) and multiplicity(star, product) != m
    return False


# -- Smith normal form and homology ---------------------------------------------

def det(m) -> int:
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def invariant_factors(diagonal, size: int) -> list[int]:
    """Smith diagonal (length ``size``) of a diagonal integer matrix."""
    nonzero = [abs(d) for d in diagonal if d]
    primes = {p for d in nonzero for p in range(2, d + 1) if d % p == 0 and
              all(p % f for f in range(2, math.isqrt(p) + 1))}
    chain = [1] * len(nonzero)
    for p in primes:
        exps = []
        for d in nonzero:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            exps.append(e)
        for i, e in enumerate(sorted(exps)):
            chain[i] *= p**e
    return chain + [0] * (size - len(nonzero))


def expected_snf(pres) -> list[int]:
    diag = []
    for _ in pres.cob_ps:
        diag += [1, 1, 0]
    diag += list(pres.torsion)
    return invariant_factors(diag, len(diag))


def check_snf(matrix, u, d, v, expected) -> bool:
    n = len(matrix)
    if matmul(matmul(u, matrix), v) != d:
        return False
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return False
    if any(d[i][j] for i in range(n) for j in range(n) if i != j):
        return False
    diag = [d[i][i] for i in range(n)]
    return diag == expected


def check_homology(pres, rank, torsion, images) -> bool:
    chain = [x for x in expected_snf(pres) if x >= 2]
    k = len(pres.cob_ps)
    if rank != k or list(torsion) != chain:
        return False
    mods = list(torsion) + [0] * rank
    free = []
    for i, p in enumerate(pres.cob_ps):
        wk, wp = images[f"mu_K_{i}"], images[f"mu_Ptilde_{i}"]
        for a, b, d in zip(wk, wp, mods):
            if (a - p * b) % d if d else a - p * b:
                return False
        free.append(list(wp[len(torsion):]))
    return abs(det(free)) == 1


# -- fronts -----------------------------------------------------------------------

# (tb, rot) of the catalog's closed fronts and (winding, tb, rot) of its pattern
FRONT_INVARIANTS = {
    "legendrian-RH-trefoil": (0, 1),
    "legendrian-RH-trefoil-maxtb": (1, 0),
    "satellite-P-of-trefoil": (2, 1),
}
PATTERN_INVARIANTS = {"paper-pattern-P": (1, 2, 0)}


def twist_pattern_invariants(n: int) -> tuple[int, int, int]:
    """(winding, tb, rot) of families.pattern_events(n): n eastward strands,
    n - 1 positive crossings, no cusps."""
    return n, n - 1, 0


def satellite_tb_rot(companion: tuple, pattern: tuple) -> tuple[int, int]:
    tb, rot = companion
    w, ptb, prot = pattern
    return w * w * tb + ptb, w * rot + prot


def genus_bounds(tb: int, rot: int) -> tuple:
    k = tb + abs(rot)
    return math.ceil(Fraction(k + 1, 2)), Fraction(k + 1, 2), k + 1


def cable_event_count(events, n: int) -> int:
    per = {"L": n + n * (n - 1) // 2, "R": n + n * (n - 1) // 2, "X": n * n}
    return sum(per[kind] for kind, _ in events)
