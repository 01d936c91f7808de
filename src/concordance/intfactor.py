"""Factoring integer polynomials into irreducibles over Z.

Polynomials are coefficient lists, lowest degree first.
``factor_by_structure`` factors a primitive polynomial by its structure
and runs Zassenhaus's algorithm only on what structure cannot settle:

1. Power substitution.  A polynomial b(t^m), with m the gcd of its
   exponents, is factored as b, and each irreducible q is substituted
   back on its own; distinct q give coprime q(t^m), and q(t^m) is
   square-free since q(0) != 0.  A cyclotomic q = Phi_e is recognised
   exactly (phi(e) = deg q forces e <= 2*deg(q)^2) and expanded without
   factoring: Phi_e(t^m) is the product of Phi_d over the d | e*m with
   d / gcd(d, m) = e.  Any other q(t^m) is factored by Capelli's theorem
   (Lang, *Algebra*, VI Thm 9.1): for a in a field K, x^m - a is
   irreducible over K exactly when x^l - a is for each prime l | m, and
   also x^4 - a when 4 | m.  For a root alpha of q and K = Q(alpha), a
   root beta of x^j - alpha has K in Q(beta), so [Q(beta):Q] = deg(q) *
   [K(beta):K]; as q(t^j) has degree j*deg(q) and the root beta, q(t^j)
   is irreducible over Q (and over Z, being primitive with q) exactly
   when x^j - alpha is irreducible over K.  So only for j prime or 4
   is q(t^j) ever factored whole (step 2 or 3), and only when no
   certificate covers it.  For any other j, q(t^d) is factored for d in
   the primes dividing j, and 4 when 4 | j: if each is irreducible, so
   is q(t^j); otherwise the first q(t^d) that splits gives q(t^j) as the
   product of r(t^(j/d)) over its factors r, each factored by the same
   rule, and j = 4 takes this route through d = 2 first.  No r is
   cyclotomic: a root of r is a d-th root of a root of q, so q would be.
   The certificate: by Capelli, x^l - alpha (l prime) is irreducible
   unless alpha is in K^l, and x^4 - alpha unless alpha is in K^2 or in
   -4K^4.  Take a prime p = 1 (mod j) dividing neither lc(q) nor q(0),
   and a simple root r of q mod p.  By Hensel r lifts to a root of q in
   the p-adic integers Z_p, so some embedding of K into Q_p sends alpha
   to a unit lifting r.  If alpha = beta^l, beta goes to a unit too, and
   r is an l-th power mod p; if alpha = -4*beta^4, r is a square, as -1
   is a square mod p = 1 (mod 4).  So a simple root r that is no l-th
   power (for j = 4, no square), tested by r^((p - 1)/l) != 1 (or
   r^((p - 1)/2) != 1), certifies q(t^j) irreducible.  No other prime
   is tried: when l does not divide p - 1 every unit mod p is an l-th
   power, and at p = 3 (mod 4) a root r of a q with alpha in -4K^4 is
   no square, -1 being none.
2. Trace coordinate.  A self-reciprocal polynomial of even degree 2n is
   t^n * g(t + 1/t) with deg g = n (``cyclotomic.trace_polynomial``).  A
   g of degree at most 1 is irreducible as it stands; any other g is
   factored.  Each irreducible h of g lifts to H(t) = t^deg(h) *
   h(t + 1/t), which is irreducible unless x^2 - 4 is a square in
   Q[x]/(h).  That is certified to fail when h(2)*h(-2), a square times
   the norm of x^2 - 4, is not a rational square.  Only an uncertified
   lift is factored; such a lift is a pair F * F(1/t), holds t -+ 1, or
   is irreducible with a square norm, as Phi_12 = t^4 - t^2 + 1 over
   h = x^2 - 3 is.
3. Everything else is factored whole.

``irreducible_factors`` is the general algorithm.  It splits off x^j and
the square-free parts (Yun), and factors each part by Zassenhaus's
algorithm (1969): distinct-degree factorization at a few primes,
Cantor-Zassenhaus (1981) equal-degree splitting, Hensel lifting to the
Mignotte bound and recombination of the lifted factors.  Modulo m,
polynomials hold residues in [0, m) with no trailing zeros; m is an odd
prime p or a power of it.  Products mod m are single integer products
(Kronecker substitution).  Recombination is refused past
``MAX_MODULAR_FACTORS`` with ``TooManyModularFactors``, an input error.
Only the standard library is used.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import combinations, count, islice

from .cyclotomic import cyclotomic_coeffs, prime_factors, primes, totient, trace_lift, trace_polynomial
from .laurent import CACHE_SIZE
from .realroots import exact_quotient, poly_derivative, poly_eval, poly_gcd, primitive_part

# Recombination tries the subsets of the modular factors, about 2^(r-1)
# of them for r factors (39,202 at r = 16, a fraction of a second); it
# refuses to look past single factors among more than this many.
MAX_MODULAR_FACTORS = 16
# square-free primes whose distinct-degree factorizations are compared
_CANDIDATE_PRIMES = 5
# Primes tried for the Capelli certificate of a q(t^j) before it is
# factored whole; an uncertified polynomial is only slower, never wrong.
_CERTIFICATE_PRIMES = 12


class TooManyModularFactors(ValueError):
    """Zassenhaus recombination would search subsets of more than
    ``MAX_MODULAR_FACTORS`` modular factors."""


def factor_by_structure(b: list[int]) -> dict[tuple, int]:
    """The irreducible factors (coefficient tuples, lowest degree first)
    of a primitive b with b[0] != 0 and b[-1] > 0, with multiplicities.

    The root b(t^(1/m)) and each non-cyclotomic q(t^j) are factored once
    per process (``_factors_at``): a(t), a(t^2), ... share the root of a
    and the q(t^d) of Capelli's steps, and a(t^p), a (p,1)-cable's
    polynomial, reuses at k the entry of a at p*k."""
    m = math.gcd(*(e for e, c in enumerate(b) if c))
    merged: dict[tuple, int] = {}
    if m:
        for q, mu in _factors_at(tuple(b[::m]), 1):
            for f, nu in _substitute(q, m) if m > 1 else [(q, 1)]:
                merged[f] = merged.get(f, 0) + mu * nu
    return merged


@functools.lru_cache(maxsize=CACHE_SIZE)
def _factors_at(q: tuple, j: int) -> tuple[tuple[tuple, int], ...]:
    """The irreducible factors of q(t^j): for j = 1, q is a root and is
    factored (steps 2 and 3); for j > 1, q is irreducible and not
    cyclotomic, and q(t^j) is factored whole only for j prime or 4 with
    no certificate, else by Capelli's steps (step 1)."""
    if j == 1:
        return tuple(_factor_primitive(list(q)))
    qj = [0] * (j * (len(q) - 1) + 1)
    qj[::j] = q
    steps = prime_factors(j) + [4] * (j % 4 == 0)
    for d in steps:
        if d == j:
            # j prime, or 4 with q(t^2) irreducible
            if _capelli_certified(q, j):
                break
            return tuple(_factor_primitive(qj))
        split = _factors_at(q, d)
        if len(split) > 1:
            return tuple(f for r, _ in split for f in _factors_at(r, j // d))
    return ((tuple(qj), 1),)


def _factor_primitive(b: list[int]) -> list[tuple[tuple, int]]:
    """Irreducible factors and multiplicities of a primitive b with
    b[0] != 0 and b[-1] > 0: step 2 or step 3."""
    if len(b) % 2 and b == b[::-1]:
        return _factor_reciprocal(b)
    return irreducible_factors(b)


def _factor_reciprocal(b: list[int]) -> list[tuple[tuple, int]]:
    """Step 2: factor g in the trace coordinate and lift each factor."""
    g = trace_polynomial(b)
    out = []
    for h, mu in [(tuple(g), 1)] if len(g) <= 2 else irreducible_factors(g):
        if _lift_is_irreducible(h):
            out.append((tuple(trace_lift(h)), mu))
        else:
            out.extend((f, mu * nu) for f, nu in irreducible_factors(trace_lift(h)))
    return out


def _lift_is_irreducible(h: tuple) -> bool:
    """A certificate that x^2 - 4 is not a square in Q[x]/(h), for an
    irreducible h, so that its lift t^deg(h) * h(t + 1/t) is irreducible:
    its norm h(2)*h(-2) / lc(h)^2 is no rational square.  False means no
    certificate, not that the lift is reducible."""
    norm = poly_eval(h, 2) * poly_eval(h, -2)
    return norm < 0 or math.isqrt(norm) ** 2 != norm


def _capelli_certified(q: tuple, j: int) -> bool:
    """A certificate that q(t^j) is irreducible, for an irreducible q that
    is not cyclotomic and j prime or 4: a simple root of q mod a prime
    p = 1 (mod j) that is no j-th power (for j = 4, no square) mod p
    (step 1).  Up to ``_CERTIFICATE_PRIMES`` primes dividing neither
    lc(q) nor q(0) are tried.  False means no certificate was found, not
    that q(t^j) is reducible."""
    # r is a j-th power (for j = 4, a square) mod p exactly when r^((p - 1)/e) = 1
    e = 2 if j == 4 else j
    step = 2 * j if j % 2 else j  # p = 1 (mod j) and odd
    tried = 0
    for p in count(1 + step, step):
        if prime_factors(p) != [p] or q[-1] % p == 0 or q[0] % p == 0:
            continue
        if any(pow(r, (p - 1) // e, p) != 1 for r in _simple_roots(q, p)):
            return True
        tried += 1
        if tried == _CERTIFICATE_PRIMES:
            return False


def _simple_roots(h: tuple, p: int):
    """The simple roots r in [0, p) of h mod a prime p not dividing lc(h),
    each of which lifts to a root of h in the p-adic integers (Hensel):
    h(r) = 0 and h'(r) != 0 mod p, by one Horner pass per r."""
    high_first = [c % p for c in reversed(h)]
    for r in range(p):
        value = slope = 0
        for c in high_first:
            slope = (slope * r + value) % p
            value = (value * r + c) % p
        if not value and slope:
            yield r


def _substitute(q: tuple, m: int) -> tuple[tuple[tuple, int], ...]:
    """Step 1: the irreducible factors of q(t^m), m > 1, for an irreducible q."""
    e = _cyclotomic_index(q)
    if e:
        return tuple(
            (cyclotomic_coeffs(d), 1)
            for d in range(1, e * m + 1)
            if (e * m) % d == 0 and d // math.gcd(d, m) == e
        )
    return _factors_at(q, m)


def _cyclotomic_index(q: tuple) -> int | None:
    """e with q = Phi_e, or None.  phi(e) >= sqrt(e/2), so e <= 2*deg^2."""
    deg = len(q) - 1
    if q[-1] != 1 or abs(q[0]) != 1:
        return None
    for e in range(1, 2 * deg * deg + 1):
        if totient(e) == deg and cyclotomic_coeffs(e) == q:
            return e
    return None


def irreducible_factors(f: list[int]) -> list[tuple[tuple, int]]:
    """Irreducible factors over Z, with multiplicities, of a primitive f
    with f[-1] > 0: x^j split off, then Yun's square-free parts, each by
    Zassenhaus (modular factors, Hensel lifting, recombination)."""
    j = next(i for i, c in enumerate(f) if c)
    out = [((0, 1), j)] if j else []
    f = f[j:]
    # Yun: w is the product of the factors of multiplicity >= i
    c = poly_gcd(f, poly_derivative(f))
    w, i = exact_quotient(f, c), 1
    while len(w) > 1:
        y = poly_gcd(w, c)
        part = exact_quotient(w, y)
        if len(part) > 1:
            out.extend((g, i) for g in _zassenhaus(part))
        w, c, i = y, exact_quotient(c, y), i + 1
    return out


def _zassenhaus(f: list[int]) -> list[tuple]:
    """Irreducible factors of a square-free primitive f with f[-1] > 0.

    Of the first ``_CANDIDATE_PRIMES`` odd primes p not dividing lc(f)
    with f square-free mod p, the one whose distinct-degree factorization
    has the fewest factors is kept.  A factor of f over Z reduces to a
    product of modular factors at every p, so its degree is a sum of
    their degrees at each p; when no degree 0 < d < deg f is such a sum
    at all the primes seen (one modular factor, say), f is irreducible:
    a linear f has no such degree, so the first prime returns it.
    Otherwise the kept factors are split to irreducibles
    (Cantor-Zassenhaus), lifted to monic u_i mod P = p^(2^e) > 2B
    (Hensel), with B = |lc(f)| * 2^deg(f) * ||f||_2 >=
    ||lc(f)/lc(q) * q||_inf for every factor q of f over Z (Mignotte),
    and recombined: lc(f) * prod(u_i over S) in symmetric residues is
    tried for subsets S of growing size and possible degree."""
    degrees = (1 << (len(f) - 1)) - 2  # bit d: a factor of degree d is possible
    best = None
    for p in _candidate_primes(f):
        fp = _monic(_reduce(f, p), p)
        power_p = _frobenius(fp, p)
        ddf = _distinct_degree(fp, p, power_p)
        sums, n_factors = 1, 0
        for d, g in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                n_factors += 1
        degrees &= sums
        if not degrees:
            return [tuple(f)]
        if best is None or n_factors < best[0]:
            best = (n_factors, p, power_p, ddf)
    _, p, power_p, ddf = best
    rng = random.Random(p)
    modular = sorted(u for d, g in ddf for u in _equal_degree(g, d, p, power_p, rng))
    bound = abs(f[-1]) << (len(f) - 1)
    bound *= math.isqrt(sum(c * c for c in f)) + 1
    P = p
    while P <= 2 * bound:
        P *= P
    return _recombine(f, _hensel(f, modular, p, P), P, degrees)


def _candidate_primes(f: list[int]):
    """The first ``_CANDIDATE_PRIMES`` odd primes p with lc(f) != 0 mod p
    and f square-free mod p (finitely many primes divide the
    discriminant of a square-free f)."""
    found = 0
    for p in islice(primes(), 1, None):
        if f[-1] % p:
            fp = _reduce(f, p)
            if len(_gcd_mod(fp, _reduce(poly_derivative(fp), p), p)) == 1:
                yield p
                found += 1
                if found == _CANDIDATE_PRIMES:
                    return


def _reduce(a: list[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _reduce([c + b[i] if i < len(b) else c for i, c in enumerate(a)], m)


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _add_mod(a, [-c for c in b], m)


def _pack(a: list[int], width: int) -> int:
    """Kronecker substitution: a at x = 256^width, for 0 <= a_i < 256^width."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")


def _unpack(x: int, width: int, n: int) -> list[int]:
    """The n digits of x in base 256^width, lowest first."""
    raw = x.to_bytes(n * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, n * width, width)]


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a * b mod m as one integer product, in slots wide enough for every
    coefficient sum."""
    if not a or not b:
        return []
    width = (min(len(a), len(b)) * (m - 1) ** 2).bit_length() // 8 + 1
    return _reduce(_unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1), m)


def _divmod_mod(a: list[int], d: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*d + r mod m and deg r < deg d; lc(d) a unit mod m."""
    n = len(d) - 1
    if len(a) <= n:
        return [], _reduce(a, m)
    inv = pow(d[-1], -1, m)
    r = list(a)
    q = [0] * (len(r) - n)
    low = d[:n]
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] * inv % m
        if c:
            q[i - n] = c
            r[i - n : i] = [x - c * y for x, y in zip(r[i - n : i], low)]
    return _reduce(q, m), _reduce(r[:n], m)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod a prime p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic(a, p)


def _pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod (f, p)."""
    out = [1]
    base = _divmod_mod(base, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, base, p), f, p)[1]
        base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
        e >>= 1
    return out


def _frobenius(f: list[int], p: int):
    """u -> u^p mod (g, p), for every g dividing a monic f mod p.  Since
    u(x)^p = u(x^p) mod p, the map is linear: row i of its matrix is
    x^(p*i) mod f, packed into one integer, and applying it costs deg f
    integer products."""
    n = len(f) - 1
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(_divmod_mod([0] * p + rows[-1], f, p)[1])
    width = (n * (p - 1) ** 2).bit_length() // 8 + 1
    packed = [_pack(row, width) for row in rows]

    def power_p(u: list[int], g: list[int]) -> list[int]:
        acc = sum(c * row for c, row in zip(u, packed))
        return _divmod_mod(_unpack(acc, width, n), g, p)[1]

    return power_p


def _distinct_degree(f: list[int], p: int, power_p) -> list[tuple[int, list[int]]]:
    """(d, product of the irreducible factors of degree d) of a monic
    square-free f mod p, from gcd(f, x^(p^d) - x)."""
    out = []
    h, d = [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = power_p(h, f)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f: list[int], d: int, p: int, power_p, rng) -> list[list[int]]:
    """The monic irreducible factors, all of degree d, of a monic
    square-free f mod an odd prime p (Cantor-Zassenhaus): for random u,
    gcd(f, u^((p^d - 1)/2) - 1) splits f with probability about 1/2.
    The power is (u * u^p * ... * u^(p^(d-1)))^((p - 1)/2)."""
    if len(f) - 1 == d:
        return [f]
    while True:
        u = _reduce([rng.randrange(p) for _ in range(len(f) - 1)], p)
        if len(u) < 2:
            continue
        v = norm = u
        for _ in range(d - 1):
            v = power_p(v, f)
            norm = _divmod_mod(_mul_mod(norm, v, p), f, p)[1]
        g = _gcd_mod(f, _sub_mod(_pow_mod(norm, (p - 1) // 2, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            rest = _divmod_mod(f, g, p)[0]
            return _equal_degree(g, d, p, power_p, rng) + _equal_degree(rest, d, p, power_p, rng)


def _bezout_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*a + t*b = 1 mod p, deg s < deg b and deg t < deg a,
    for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel(f: list[int], modular: list[list[int]], p: int, P: int) -> list[list[int]]:
    """Monic u_i mod P with f = lc(f) * prod(u_i) mod P, from pairwise
    coprime monic factors with the same product mod p: split the factors
    in two halves g (carrying lc(f)) and h, lift f = g*h by quadratic
    Hensel steps from p to P (von zur Gathen and Gerhard, Algorithm
    15.10), and recurse on each half."""
    if len(modular) == 1:
        return [_monic(_reduce(f, P), P)]
    half = len(modular) // 2
    g = [f[-1] % p]
    for u in modular[:half]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in modular[half:]:
        h = _mul_mod(h, u, p)
    s, t = _bezout_mod(g, h, p)
    m = p
    while m < P:
        m *= m
        e = _sub_mod(f, _mul_mod(g, h, m), m)
        q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
        g = _add_mod(_add_mod(g, _mul_mod(t, e, m), m), _mul_mod(q, g, m), m)
        h = _add_mod(h, r, m)
        b = _sub_mod(_add_mod(_mul_mod(s, g, m), _mul_mod(t, h, m), m), [1], m)
        c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
        s = _sub_mod(s, d, m)
        t = _sub_mod(t, _add_mod(_mul_mod(t, b, m), _mul_mod(c, g, m), m), m)
    return _hensel(g, modular[:half], p, P) + _hensel(h, modular[half:], p, P)


def _recombine(f: list[int], lifted: list[list[int]], P: int, degrees: int) -> list[tuple]:
    """Zassenhaus recombination: the factors lc(f) * prod(u_i over S)
    mod P, for subsets S of growing size whose degree d has bit d set in
    ``degrees``, whose primitive part divides f.  A subset of the least
    size that divides is an irreducible factor, since each of its proper
    subsets was tried first."""
    found = []
    s = 1
    while 2 * s <= len(lifted):
        if s > 1 and len(lifted) > MAX_MODULAR_FACTORS:
            raise TooManyModularFactors(
                f"factoring a polynomial of degree {len(f) - 1} needs "
                f"recombination of {len(lifted)} modular factors, above "
                f"{MAX_MODULAR_FACTORS}"
            )
        for subset in combinations(range(len(lifted)), s):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            lead, const = f[-1], f[-1]
            for i in subset:
                const = const * lifted[i][0] % P
            const = const - P if 2 * const > P else const
            if const == 0 or (lead * f[0]) % const:
                continue
            g = [lead % P]
            for i in subset:
                g = _mul_mod(g, lifted[i], P)
            g = primitive_part([c - P if 2 * c > P else c for c in g])
            quotient = exact_quotient(f, g)
            if quotient is not None:
                found.append(tuple(g))
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return found + [tuple(f)]
