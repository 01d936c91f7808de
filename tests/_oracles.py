"""Independent brute-force oracles shared across test modules.

The norm oracle enumerates every possible Fox-Milnor witness inside a
finite box (degree <= 4, coefficients in [-5, 5]) and is therefore a
complete decision procedure for products whose witnesses must live in
that box; the generators below only produce such products."""

import importlib.util
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from sympy.polys.matrices import DomainMatrix

from concordance.cyclotomic import CycloInt, hermitian_signature, v_polys
from concordance.laurent import Factorization, LaurentPoly, clear_caches, doteq, fox_milnor_pairing, is_int  # noqa: F401
from concordance.legendrian import (
    CROSSING,
    EAST,
    LEFT_CUSP,
    RIGHT_CUSP,
    WEST,
    FrontDiagram,
    FrontError,
    LegendrianInvariants,
    MultiComponent,
)
from concordance.realroots import RootMarker, squarefree_part, sturm_chain
from concordance.seifert import RootOfUnity, SeifertMatrix, balanced_alexander
from concordance.surgery import AbelianGroupDescription, smith_normal_form


def load_perfbench(name):
    """perfbench/<name>.py, a stdlib-only module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


families = load_perfbench("families")
# perfbench/oracles.py imports its sibling by the plain name that perfbench/run.py's path gives it
sys.modules.setdefault("families", families)
perfbench_oracles = load_perfbench("oracles")


class ReferenceLaurentPoly:
    """A Laurent polynomial kept as a dict {exponent: nonzero coefficient},
    the layout ``LaurentPoly`` had before it became dense: each public
    method of ``LaurentPoly`` recomputed term by term, to check it."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def items(self):
        return sorted(self.terms.items())

    def low(self):
        return min(self.terms)

    def high(self):
        return max(self.terms)

    def dense(self):
        """The coefficients of t^low .. t^high, a tuple; () for zero."""
        if not self.terms:
            return ()
        return tuple(self.terms.get(e, 0) for e in range(self.low(), self.high() + 1))

    def content(self):
        return math.gcd(*self.terms.values())

    def __mul__(self, other):
        product = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        return ReferenceLaurentPoly(product)

    def __pow__(self, n):
        result = ReferenceLaurentPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def shift(self, k):
        return ReferenceLaurentPoly({e + k: c for e, c in self.terms.items()})

    def reciprocal(self):
        return ReferenceLaurentPoly({-e: c for e, c in self.terms.items()})

    def substitute_power(self, k):
        return ReferenceLaurentPoly({e * k: c for e, c in self.terms.items()})

    def associate_normal(self):
        if not self.terms:
            return self
        sign = 1 if self.terms[self.high()] > 0 else -1
        return ReferenceLaurentPoly({e - self.low(): sign * c for e, c in self.terms.items()})

    def __eq__(self, other):
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        words = []
        for e, c in reversed(self.items()):
            body = f"{abs(c)}" if e == 0 else f"{abs(c)}*t^{e}"
            if words:
                words.append(f"{'-' if c < 0 else '+'} {body}")
            else:
                words.append(f"-{body}" if c < 0 else body)
        return " ".join(words)


CAPPED_BYTES = 1 << 30


def run_capped(code, *args, timeout=30):
    """Run `code` in a fresh interpreter whose address space is capped at
    CAPPED_BYTES, so that an allocation a check should have refused
    raises MemoryError there instead of taking the host's memory; the
    finished process, its output as text."""
    import os
    import resource
    import subprocess

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAPPED_BYTES, CAPPED_BYTES))

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-c", code, *args], preexec_fn=cap, capture_output=True, text=True,
        timeout=timeout, env=dict(os.environ, PYTHONPATH=src),
    )


def laurent_at_sign(a, x):
    """a(x) at x = 1 or -1, where x^e = x^(e mod 2)."""
    return sum(c * x ** (e % 2) for e, c in a.items())


def _candidate_table():
    """All brute-force witnesses: degree <= 4, coefficients in [-5, 5],
    nonzero constant term, positive leading coefficient, keyed by
    (span, f(1)^2, f(-1)^2)."""
    table = {}
    rng = range(-5, 6)
    for c0 in rng:
        if c0 == 0:
            continue
        for c1 in rng:
            for c2 in rng:
                for c3 in rng:
                    for c4 in range(0, 6):
                        coeffs = (c0, c1, c2, c3, c4)
                        top = 4
                        while coeffs[top] == 0:
                            top -= 1
                        if coeffs[top] < 0:
                            continue
                        s1 = c0 + c1 + c2 + c3 + c4
                        sm1 = c0 - c1 + c2 - c3 + c4
                        key = (top, s1 * s1, sm1 * sm1)
                        table.setdefault(key, []).append(coeffs[: top + 1])
    return table


_TABLE = None


def brute_force_norm_witness(a):
    global _TABLE
    if _TABLE is None:
        _TABLE = _candidate_table()
    norm = a.associate_normal()
    span = norm.span()
    if span % 2:
        return None
    key = (span // 2, abs(laurent_at_sign(a, 1)), abs(laurent_at_sign(a, -1)))
    for coeffs in _TABLE.get(key, []):
        f = LaurentPoly({e: c for e, c in enumerate(coeffs)})
        if doteq(a, f * f.reciprocal()):
            return f
    return None


def random_pool_poly(r, max_deg):
    while True:
        coeffs = [r.randint(-1, 1) for _ in range(max_deg + 1)]
        if any(coeffs):
            p = LaurentPoly({e: c for e, c in enumerate(coeffs)})
            return p.associate_normal()


def fox_milnor_oracle_cases(seed):
    """100 constructed norms plus 100 random small products, seeded."""
    r = random.Random(seed)
    cases = []
    for _ in range(100):
        # constructed norms: witness g is inside the search box
        g = LaurentPoly({e: r.randint(-2, 2) for e in range(r.randint(1, 5))})
        if g.is_zero:
            g = LaurentPoly.one()
        shift = r.randint(-2, 2)
        sign = r.choice([1, -1])
        cases.append((g * g.reciprocal()).shift(shift) * LaurentPoly({0: sign}))
    for _ in range(100):
        # random small products, mostly non-norms
        a = LaurentPoly.one()
        for _ in range(r.randint(1, 3)):
            a = a * random_pool_poly(r, r.randint(1, 2))
        if a.span() > 8:
            a = random_pool_poly(r, 2)
        cases.append(a.shift(r.randint(-1, 1)))
    return cases


def _check(holds, message):
    """An assert that python -O keeps: this module is not a test module,
    so pytest does not rewrite its asserts and -O would strip them."""
    if not holds:
        raise AssertionError(message)


def fox_milnor_disagreements(cases):
    """Compare fox_milnor_pairing against the oracle; both witnesses are
    re-verified exactly.  Returns the list of disagreements."""
    disagreements = []
    for a in cases:
        got = fox_milnor_pairing(a)
        brute = brute_force_norm_witness(a)
        if got.is_norm != (brute is not None):
            disagreements.append((a, got.is_norm, brute))
        if brute is not None:
            _check(doteq(a, brute * brute.reciprocal()), f"brute witness {brute} fails for {a}")
        if got.is_norm:
            _check(doteq(a, got.witness * got.witness.reciprocal()),
                   f"witness {got.witness} fails for {a}")
    return disagreements


def sympy_factor(a):
    """The whole-polynomial route: one ``Poly.factor_list`` call on the
    integer Laurent polynomial a, its factors put in the normal form and
    the order of ``laurent.Factorization`` (by degree, then by the
    coefficients from the constant term up).  It shares no code with
    ``laurent.factor``."""
    low, high = a.low(), a.high()
    t = sympy.Symbol("t")
    terms = dict(a.items())
    desc = [terms.get(e, 0) for e in range(high, low - 1, -1)]
    unit, raw = sympy.Poly(desc, t, domain=sympy.ZZ).factor_list()
    factors = []
    for f, m in raw:
        coeffs = [int(c) for c in reversed(f.all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        factors.append((coeffs, int(m)))
    factors.sort(key=lambda fm: (len(fm[0]), tuple(fm[0])))
    return Factorization(
        sign=1 if unit > 0 else -1,
        power=low,
        content=abs(int(unit)),
        factors=tuple((LaurentPoly.from_coeffs(c), m) for c, m in factors),
    )


def assert_valid_snf(M, U, D, V):
    """Full Smith normal form contract, checked with an independent
    linear-algebra package: exact product, unimodular transforms,
    diagonal nonnegative with trailing zeros and a divisibility chain.
    Returns the diagonal."""
    Um, Mm, Vm = sympy.Matrix(U), sympy.Matrix(M), sympy.Matrix(V)
    m = len(M)
    n = len(M[0]) if m else 0
    Dm = sympy.zeros(m, n)
    for i in range(m):
        for j in range(n):
            Dm[i, j] = D[i][j]
    _check(Um * Mm * Vm == Dm, "U * M * V != D")
    _check(abs(Um.det()) == 1, "U is not unimodular")
    _check(abs(Vm.det()) == 1, "V is not unimodular")
    diag = [D[i][i] for i in range(min(m, n))]
    _check(all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j),
           "D has an off-diagonal entry")
    _check(all(d >= 0 for d in diag), f"D has a negative diagonal entry: {diag}")
    nonzero = [d for d in diag if d]
    _check(diag[: len(nonzero)] == nonzero, f"zeros do not trail on the diagonal: {diag}")
    _check(all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])),
           f"the diagonal is not a divisibility chain: {diag}")
    return diag


def _reference_find_pivot(W, t, m, n):
    """(|entry|, i, j) of the smallest nonzero entry in W[t:m][t:n], ties
    row-major; None when that block is zero."""
    return min(
        ((abs(W[i][j]), i, j) for i in range(t, m) for j in range(t, n) if W[i][j]),
        default=None,
    )


def reference_smith_normal_form(M):
    """Diagonalize an integer matrix: U * M * V = D.

    The library's elimination written plainly: every elementary operation
    on every row of W and a full pivot scan at every step, then a sign fix
    and the chain pass, which also works on whole rows and columns, so the
    D block it leaves is computed, not assumed diagonal.  The library must
    give the same U, D and V byte for byte.

    U and V are unimodular; D is diagonal, nonnegative, and its nonzero
    entries form a divisibility chain d_1 | d_2 | ... followed by zeros.
    The pivot rule (smallest nonzero absolute value, ties in row-major
    order) makes the transforms deterministic.

    The elimination runs on one working matrix W: its first m rows are
    [M | I_m] and the n rows below are I_n.  A row operation on the first
    m rows builds U in the right block, and a column operation on the
    first n columns builds V in the bottom block; at the end the first m
    rows are [D | U] and the rest is V.

    Returns (U, D, V) as lists of lists.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise ValueError("matrix rows have unequal lengths")
    if not all(is_int(x) for row in M for x in row):
        raise ValueError("matrix entries must be integers")
    W = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(M)]
    W += [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, k):
        W[i], W[k] = W[k], W[i]

    def col_swap(j, k):
        for row in W:
            row[j], row[k] = row[k], row[j]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        W[i] = [a - q * b for a, b in zip(W[i], W[k])]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for row in W:
            row[j] -= q * row[k]

    for t in range(min(m, n)):
        pivot = _reference_find_pivot(W, t, m, n)
        if pivot is None:
            break
        row_swap(t, pivot[1])
        col_swap(t, pivot[2])
        while True:
            for i in range(t + 1, m):
                if W[i][t]:
                    row_sub(i, t, W[i][t] // W[t][t])
            left = [i for i in range(t + 1, m) if W[i][t]]
            if left:
                # a remainder smaller than the pivot surfaced; promote it
                row_swap(t, min(left, key=lambda i: (abs(W[i][t]), i)))
                continue
            for j in range(t + 1, n):
                if W[t][j]:
                    col_sub(j, t, W[t][j] // W[t][t])
            left = [j for j in range(t + 1, n) if W[t][j]]
            if not left:
                break
            col_swap(t, min(left, key=lambda j: (abs(W[t][j]), j)))
    for i in range(min(m, n)):
        if W[i][i] < 0:
            W[i] = [-x for x in W[i]]
    # the chain pass, on every row of W: for each pair i < j of nonzero
    # diagonal entries a, b with a not dividing b, three operations turn
    # them into gcd(a, b) and a * b / gcd(a, b)
    rank = sum(1 for i in range(min(m, n)) if W[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = W[i][i], W[j][j]
            if b % a == 0:
                continue
            g = math.gcd(a, b)
            s = pow(a // g, -1, b // g)
            u = (g - s * a) // b
            col_sub(i, j, -1)
            W[i], W[j] = (
                [s * x + u * y for x, y in zip(W[i], W[j])],
                [(a // g) * y - (b // g) * x for x, y in zip(W[i], W[j])],
            )
            col_sub(j, i, u * b // g)
    return [row[n:] for row in W[:m]], [row[:n] for row in W[:m]], W[m:]


def reference_first_homology(presentation, labels=None):
    """First homology by the library's earlier route: U from
    `smith_normal_form`, each class image the product U * v, one dot
    product per row of U.  A coordinate is reduced mod its diagonal entry
    (kept as is for a zero one) and dropped for a unit entry.  Only the
    classes named in labels are mapped, every class when it is None."""
    U, D, _ = smith_normal_form(presentation.matrix)
    diag = [row[i] for i, row in enumerate(D)]
    images = {
        label: tuple(
            x % d if d else x
            for x, d in zip((sum(map(operator.mul, u, vector)) for u in U), diag)
            if d != 1
        )
        for label, vector in presentation.classes.items()
        if labels is None or label in labels
    }
    return AbelianGroupDescription(
        rank=diag.count(0),
        torsion=tuple(d for d in diag if d >= 2),
        images=images,
    )


class _ReferenceFront(FrontDiagram):
    """A front analyzed by the library's earlier sweep: the event copy of
    `__init__`, `_sweep`, `_orient_components` and `invariants` as they
    stood before the sweep tested positions by type, crossings first and
    bounds by the IndexError of the read, and `winding` as it stood while
    directions were the strings "E" and "W".  The rest (component count,
    the closure check) is the library's.  The library must give the same
    events, results, exceptions and messages."""

    def __init__(self, events, seam_strands=0, orient=EAST):
        if not is_int(seam_strands) or seam_strands < 0:
            raise FrontError(f"seam_strands must be a nonnegative int, got {seam_strands!r}")
        if orient not in (EAST, WEST):
            raise FrontError(f"orient must be {EAST!r} or {WEST!r}, got {orient!r}")
        self.events = tuple((kind, pos) for kind, pos in events)
        self.seam_strands = seam_strands
        self.orient = orient
        self._sweep()
        if self.is_closed:
            self._orient_components()

    def _sweep(self):
        """Run the left-to-right simulation, recording segments and features."""
        positions = list(range(self.seam_strands))
        next_id = self.seam_strands
        cusps = []       # (side, upper_seg, lower_seg)
        crossings = []   # (upper_seg, lower_seg)
        try:
            for n, (kind, pos) in enumerate(self.events):
                if not is_int(pos):
                    raise FrontError("position must be an integer")
                if pos < 0:
                    raise FrontError("negative position")
                if kind == LEFT_CUSP:
                    if pos > len(positions):
                        raise FrontError(f"position beyond {len(positions)} strands")
                    positions[pos:pos] = [next_id, next_id + 1]
                    cusps.append((LEFT_CUSP, next_id, next_id + 1))
                    next_id += 2
                elif kind in (RIGHT_CUSP, CROSSING):
                    if pos > len(positions) - 2:
                        raise FrontError(f"needs two strands at {pos}, have {len(positions)}")
                    upper, lower = positions[pos], positions[pos + 1]
                    if kind == RIGHT_CUSP:
                        del positions[pos:pos + 2]
                        cusps.append((RIGHT_CUSP, upper, lower))
                    else:
                        positions[pos:pos + 2] = lower, upper
                        crossings.append((upper, lower))
                else:
                    raise FrontError("unknown event kind")
        except FrontError as exc:
            raise FrontError(f"event {n} ({kind} {pos}): {exc}") from None
        self._segment_count = next_id
        self._cusps = cusps
        self._crossings = crossings
        self._right_edge = tuple(positions)
        self.is_closed = len(positions) == self.seam_strands

    def _orient_components(self):
        # a cusp joins two segments of opposite directions; the seam glues
        # right-edge position j to seam strand j in the same direction
        adjacency = [[] for _ in range(self._segment_count)]
        links = [(upper, lower, True) for _, upper, lower in self._cusps]
        links += [(j, seg, False) for j, seg in enumerate(self._right_edge)]
        for a, b, flip in links:
            adjacency[a].append((b, flip))
            adjacency[b].append((a, flip))
        dirs = [None] * self._segment_count
        components = 0
        for start in range(self._segment_count):
            if dirs[start] is not None:
                continue
            components += 1
            dirs[start] = self.orient if start == 0 else EAST
            stack = [start]
            while stack:
                seg = stack.pop()
                for other, flip in adjacency[seg]:
                    want = _flip(dirs[seg]) if flip else dirs[seg]
                    if dirs[other] is None:
                        dirs[other] = want
                        stack.append(other)
                    elif dirs[other] != want:
                        # cusps alternate left and right along a closed
                        # curve, so 2-coloring never conflicts
                        raise RuntimeError(f"segments {seg} and {other} get opposite orientations")
        self._dirs = dirs
        self._components = components

    def winding(self):
        """Net signed count of seam strands (eastward minus westward)."""
        self._require_closed()
        return sum(
            1 if self._dirs[j] == EAST else -1 for j in range(self.seam_strands)
        )

    def invariants(self):
        """Compute (tb, rot) and the raw counts behind them.

        Raises NonClosed for a front that does not close up and
        MultiComponent when it traces more than one curve.
        """
        self._require_closed()
        if self._components != 1:
            raise MultiComponent(
                f"front has {self._components} components, expected 1"
            )
        dirs = self._dirs
        writhe = sum(1 if dirs[upper] == dirs[lower] else -1 for upper, lower in self._crossings)
        down_left = sum(
            1 for side, upper, _ in self._cusps
            if side == LEFT_CUSP and dirs[upper] == WEST
        )
        up_right = sum(
            1 for side, upper, _ in self._cusps
            if side == RIGHT_CUSP and dirs[upper] == WEST
        )
        cusps = len(self._cusps)
        if cusps % 2:
            raise ArithmeticError(f"a closed front has {cusps} cusps, an odd count")
        tb = writhe - cusps // 2
        rot = down_left - up_right
        if self.seam_strands == 0 and (tb + abs(rot)) % 2 != 1:
            raise ArithmeticError(f"tb + |rot| = {tb + abs(rot)} must be odd for a knot front")
        return LegendrianInvariants(tb, rot, writhe, cusps, down_left, up_right)


def _flip(direction):
    return WEST if direction == EAST else EAST


def reference_front_sweep(events, seam_strands=0, orient=EAST):
    """The front the earlier sweep builds from the same arguments."""
    return _ReferenceFront(events, seam_strands, orient)


def _interleave_down(base, n):
    """Crossings turning [u0 l0 u1 l1 ...] into [u0 .. u_{n-1} l0 .. l_{n-1}]."""
    return [
        (CROSSING, base + q) for i in range(1, n) for q in range(2 * i - 1, i - 1, -1)
    ]


def _cable_block(event, n):
    kind, pos = event
    base = n * pos
    if kind == LEFT_CUSP:
        return [(LEFT_CUSP, base + 2 * j) for j in range(n)] + _interleave_down(base, n)
    if kind == RIGHT_CUSP:
        # a crossing sequence read backwards undoes its permutation
        return _interleave_down(base, n)[::-1] + [(RIGHT_CUSP, base)] * n
    # crossing: walk the upper block of n strands down through the lower one
    return [
        (CROSSING, base + (n - 1) - i + j) for i in range(n) for j in range(n)
    ]


def reference_cable_events(events, n):
    """The events of the n-copy cable as the library built them when each
    event's block was built afresh (`_cable_block`, verbatim)."""
    return [e for event in events for e in _cable_block(event, n)]


def reference_satellite_events(companion_events, pattern_events, splice_after, base, n):
    """The satellite's events by the same earlier route: the cabled
    blocks with the shifted pattern inserted after `splice_after` of them."""
    blocks = [_cable_block(event, n) for event in companion_events]
    blocks.insert(splice_after, [(kind, pos + base) for kind, pos in pattern_events])
    return [e for block in blocks for e in block]


def front_to_text(front):
    """The front file of `front`: the round-trip oracle of
    `front_from_text`, since the library writes no such file."""
    lines = []
    if front.seam_strands:
        lines.append(f"S {front.seam_strands}")
    lines.append(f"O {front.orient}")
    lines.extend(f"{kind} {pos}" for kind, pos in front.events)
    return "\n".join(lines) + "\n"


def cyclotomic_levine_tristram(v, a, b):
    """Signature of (1 - omega)V + (1 - conj(omega))V^T at omega =
    zeta_b^a, as a Hermitian form over Z[zeta_b]: a route that shares no
    code with the rational signature engine."""
    n = v.size
    if n == 0:
        return 0
    one_minus = CycloInt(b, {0: 1, a: -1})
    one_minus_bar = one_minus.conj()
    e = v.entries
    M = [
        [e[i][j] * one_minus + e[j][i] * one_minus_bar for j in range(n)]
        for i in range(n)
    ]
    return hermitian_signature(M)


def sympy_alexander(v):
    """det(V - t*V^T) in the balanced normal form of ``alexander``, as
    (-1)^n times the constant term of sympy's division-free Berkowitz
    characteristic polynomial over Z[t]: a route that shares no code with
    the Bareiss determinant and the interpolation."""
    n = v.size
    if n == 0:
        return LaurentPoly.one()
    t = sympy.Symbol("t")
    V = sympy.Matrix(v.entries)
    M = DomainMatrix.from_Matrix(V - t * V.T).convert_to(sympy.ZZ[t])
    det = (-1) ** n * M.charpoly()[-1]
    norm = LaurentPoly({e: int(c) for (e,), c in det.terms()}).associate_normal()
    return norm.shift(-(norm.high() // 2))


def front_alexander(front):
    """Alexander polynomial of the knot a front draws, by Fox calculus on
    its Wirtinger presentation, in the balanced normal form of
    ``alexander``: a route that shares no code with the Seifert matrix.

    At a crossing the strand that descends from left to right is the over
    strand (a mirror would not change the polynomial).  An annular front
    is closed up in the plane: right-edge position j joins left-edge
    position j by arcs around the diagram, which cross nothing.  Pieces
    of strand run between events; cusps, the seam and the over strand of
    a crossing join pieces into one Wirtinger arc, and cusps reverse the
    horizontal direction along the knot."""
    positions = list(range(front.seam_strands))
    count = front.seam_strands
    joins = []      # (piece, piece, reverses direction, same Wirtinger arc)
    crossings = []  # (over piece, under piece left, under piece right)
    for kind, i in front.events:
        if kind == "L":
            positions[i:i] = [count, count + 1]
            joins.append((count, count + 1, True, True))
            count += 2
        elif kind == "R":
            joins.append((positions[i], positions[i + 1], True, True))
            del positions[i:i + 2]
        else:
            over, under = positions[i], positions[i + 1]
            joins += [(over, count, False, True), (under, count + 1, False, False)]
            crossings.append((over, under, count + 1))
            positions[i:i + 2] = [count + 1, count]
            count += 2
    joins += [(j, piece, False, True) for j, piece in enumerate(positions)]
    neighbours = [[] for _ in range(count)]
    for x, y, flip, _ in joins:
        neighbours[x].append((y, flip))
        neighbours[y].append((x, flip))
    east = {0: True}
    todo = [0]
    while todo:
        a = todo.pop()
        for b, flip in neighbours[a]:
            if b not in east:
                east[b] = east[a] != flip
                todo.append(b)
    _check(len(east) == count, "the front draws more than one component")
    arc = list(range(count))

    def root(piece):
        while arc[piece] != piece:
            piece = arc[piece]
        return piece

    for x, y, _, same_arc in joins:
        if same_arc:
            arc[root(x)] = root(y)
    labels = sorted({root(piece) for piece in range(count)})
    if not crossings:
        return LaurentPoly.one()
    _check(len(labels) == len(crossings), "a knot diagram has one arc per crossing")
    column = {label: n for n, label in enumerate(labels)}
    t = sympy.Symbol("t")
    rows = []
    for over, left, right in crossings:
        # Wirtinger: x_out = x_over^e x_in x_over^-e with e the crossing
        # sign; Fox derivatives sent to t, times t when e = -1
        incoming, outgoing = (left, right) if east[left] else (right, left)
        row = [0] * len(labels)
        if east[over] == east[left]:
            entries = ((over, 1 - t), (incoming, t), (outgoing, -1))
        else:
            entries = ((over, t - 1), (incoming, 1), (outgoing, -t))
        for piece, value in entries:
            row[column[root(piece)]] += value
        rows.append(row)
    minor = DomainMatrix.from_Matrix(sympy.Matrix(rows)[1:, 1:])
    det = minor.convert_to(sympy.ZZ[t]).det()
    _check(det != 0, "the Alexander minor vanishes")
    norm = LaurentPoly({e: int(c) for (e,), c in det.terms()}).associate_normal()
    return norm.shift(-(norm.high() // 2))


def scrambled_seifert(r, v):
    """P V P^T for a random unimodular P from the benchmark's generator:
    the same Seifert form in another basis, so Alexander polynomial and
    signatures are unchanged."""
    p = families.unimodular(r, v.size, 3 * v.size)
    return SeifertMatrix(families.matmul(families.matmul(p, v.entries), families.transpose(p)))


def _primes_upto(n):
    return [b for b in range(2, n + 1) if all(b % d for d in range(2, b))]


def scan_cable_witness(sig, p, denominator_bound):
    """The angle scan that preceded the arc merge: the first a/b, b prime
    up to the bound, in increasing b then a, with sigma(a/b) = 0 and
    sigma(p*a/b) != 0, as (omega, sigma(omega^p)), or None."""
    for b in _primes_upto(denominator_bound):
        if p % b == 0 or sig.is_jump(Fraction(1, b)):
            continue
        for a in range(1, b):
            q = Fraction(a, b)
            if sig.evaluate(q) == 0:
                power_value = sig.evaluate((p * q) % 1)
                if power_value != 0:
                    return RootOfUnity(a, b), power_value
    return None


def scan_signature_mismatch(sig0, sig1, denominator_bound):
    """The angle scan that preceded the arc merge: the first a/b, b prime
    up to the bound, where two signature functions differ, as
    (omega, sigma_0, sigma_1), or None."""
    for b in _primes_upto(denominator_bound):
        if sig0.is_jump(Fraction(1, b)) or sig1.is_jump(Fraction(1, b)):
            continue
        for a in range(1, b):
            q = Fraction(a, b)
            v0, v1 = sig0.evaluate(q), sig1.evaluate(q)
            if v0 != v1:
                return RootOfUnity(a, b), v0, v1
    return None


def reference_alexander(v):
    """The Alexander route that preceded the halving: det(V - t*V^T) at
    t = 0, 1, ..., n (by sympy's integer determinant, not the library's
    Bareiss), then Newton forward differences (the j-th difference at 0
    over j!) and Horner in the falling-factorial basis, balanced."""
    e, n = v.entries, v.size
    diffs = [
        int(DomainMatrix.from_list([[e[i][j] - k * e[j][i] for j in range(n)] for i in range(n)], sympy.ZZ).det())
        if n else 1
        for k in range(n + 1)
    ]
    newton = []
    for j in range(n + 1):
        a, r = divmod(diffs[0], math.factorial(j))
        _check(r == 0, "interpolated coefficient is not an integer")
        newton.append(a)
        diffs = [y1 - y0 for y0, y1 in zip(diffs, diffs[1:])]
    acc = [0]
    for j in reversed(range(n + 1)):
        nxt = [newton[j]] + acc
        for i, c in enumerate(acc):
            nxt[i] -= j * c
        acc = nxt
    return balanced_alexander(LaurentPoly.from_coeffs(acc))


def _reference_sign_at(coeffs, x):
    """Sign of the polynomial at the Fraction x, by Horner over Q."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _reference_variations(chain, x):
    signs = [s for s in (_reference_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def marker_ends(marker):
    """A marker's ends (lo, hi) as Fractions: its two integer numerators
    over its denominator."""
    return Fraction(marker.lo_num, marker.den), Fraction(marker.hi_num, marker.den)


def refine_below(marker, width):
    """marker.refine at the Fraction width, passed as two ints."""
    return marker.refine(width.numerator, width.denominator)


def reference_marker(poly, lo, hi):
    """The RootMarker of the root of poly in (lo, hi), or at lo = hi, from
    two Fractions: the ends over the lcm of their denominators, and the
    sign of poly at lo."""
    d = math.lcm(lo.denominator, hi.denominator)
    n_lo, n_hi = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    return RootMarker(poly, n_lo, n_hi, d, _reference_sign_at(poly, lo))


def reference_refine(marker, width):
    """RootMarker.refine as it was before bisection ran on integers: every
    midpoint a Fraction."""
    if marker.sign_lo == 0:
        return marker
    lo, hi = marker_ends(marker)
    s_lo = _reference_sign_at(marker.poly, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = _reference_sign_at(marker.poly, mid)
        if v == 0:
            return reference_marker(marker.poly, mid, mid)
        if v == s_lo:
            lo = mid
        else:
            hi = mid
    return reference_marker(marker.poly, lo, hi)


def reference_compare(marker, x):
    """RootMarker.compare as it was before markers kept integer ends
    (``compare_rational``): -1, 0, +1 as the root is below, equal to, or
    above the Fraction x, from the Fraction ends and signs over Q."""
    lo, hi = marker_ends(marker)
    if marker.sign_lo == 0:
        return (lo > x) - (lo < x)
    if x <= lo:
        return 1
    if x >= hi:
        return -1
    s_x = _reference_sign_at(marker.poly, x)
    if s_x == 0:
        return 0
    return 1 if s_x == _reference_sign_at(marker.poly, lo) else -1


def reference_markers_above(markers, lo, hi):
    """seifert._markers_above on Fractions, through ``reference_compare``:
    the number of markers whose root exceeds hi, or None when some root
    lies in [lo, hi]."""
    count = 0
    for m in markers:
        if reference_compare(m, hi) > 0:
            count += 1
        elif reference_compare(m, lo) >= 0:
            return None
    return count


def x_of_u(u):
    """x = 2*cos(theta) = 2(u^2 - 1)/(u^2 + 1) at cot(theta/2) = u, for an
    arc sample u = r/s given as a Fraction."""
    return 2 * (u * u - 1) / (u * u + 1)


def reference_pullback_point(p, u):
    """v_p(x(u)) as a Fraction: the point at which a pullback's arc
    sample u reads the step function it pulls back, by Horner over Q."""
    x = x_of_u(u)
    acc = Fraction(0)
    for c in reversed(v_polys(p)[p]):
        acc = acc * x + c
    return acc


def reference_isolate_roots(coeffs, lo, hi):
    """isolate_roots as it was before bisection ran on integers: the same
    Sturm bisection of (lo, hi) with Fraction midpoints and a set of the
    midpoints found to be roots."""
    lo, hi = Fraction(lo), Fraction(hi)
    sf = squarefree_part(coeffs)
    if len(sf) <= 1:
        return []
    _check(_reference_sign_at(sf, lo) and _reference_sign_at(sf, hi), "isolation endpoints must not be roots")
    chain = sturm_chain(sf)
    markers = []
    exact = set()
    stack = [(lo, hi, _reference_variations(chain, lo), _reference_variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb - (b in exact)
        if n == 0:
            continue
        if n == 1 and a not in exact and b not in exact:
            markers.append(reference_refine(reference_marker(sf, a, b), Fraction(1, 64)))
            continue
        mid = (a + b) / 2
        if _reference_sign_at(sf, mid) == 0:
            exact.add(mid)
            markers.append(reference_marker(sf, mid, mid))
        vm = _reference_variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    markers.sort(key=lambda m: marker_ends(m)[0])
    return markers


def _reference_symmetric_signature(m):
    """(signature, rank) of a symmetric integer matrix by fraction-free
    symmetric elimination: the real kernel that preceded the Hermitian
    one.  Symmetric swaps and the step e_i <- e_i + e_j (which makes the
    (i, i) entry 2*m[i][j] when the trailing diagonal vanishes) are
    unimodular congruences, so the Bareiss divisions stay exact."""
    m = [list(row) for row in m]
    n = len(m)
    sig = 0
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]), None)
            if pair is None:
                return sig, k  # the trailing block is zero
            p, j = pair
            for c in range(k, n):
                m[p][c] += m[j][c]
            for r in range(k, n):
                m[r][p] += m[r][j]
        if p != k:
            m[k], m[p] = m[p], m[k]
            for row in m[k:]:
                row[k], row[p] = row[p], row[k]
        d = m[k][k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(i, n):
                m[i][j] = m[j][i] = (d * m[i][j] - mik * m[k][j]) // prev
        prev = d
    return sig, n


def reference_signature_at(A, S, u):
    """sigma(omega) at cot(theta/2) = u as it was computed before the
    Hermitian kernel: half the signature of the 4g x 4g real model
    [[A, u*S], [-u*S, A]] of A - i*u*S, scaled by the denominator of u;
    at u = 0 the model is A twice over."""
    n = len(A)
    r, s = u.numerator, u.denominator
    if r == 0:
        sig, rank = _reference_symmetric_signature(A)
        sig, rank = 2 * sig, 2 * rank
    else:
        sA = [[s * a for a in row] for row in A]
        rS = [[r * c for c in row] for row in S]
        top = [sA[i] + rS[i] for i in range(n)]
        bottom = [[-c for c in rS[i]] + sA[i] for i in range(n)]
        sig, rank = _reference_symmetric_signature(top + bottom)
    if rank != 2 * n:
        raise ArithmeticError(f"the form is singular at the sample point u = {u}")
    if sig % 4:
        raise ArithmeticError("nonsingular even-rank form must have even signature")
    return sig // 2
