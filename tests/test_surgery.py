"""Smith normal form, surgery homology, and the meridian condition.

The transforms U, D, V and the homology images of a fixed set of seeded
cases are pinned by their digests in ``data/snf_digests.json``.  An
intended change to them regenerates the file:

    PYTHONPATH=src python tests/test_surgery.py
"""

import hashlib
import json
import pathlib
import random
from importlib import resources

import pytest
import sympy

from _oracles import (
    assert_valid_snf,
    families,
    presentation_to_text,
    reference_first_homology,
    reference_smith_normal_form,
)

from concordance.surgery import (
    AbelianGroupDescription,
    ClassMismatch,
    MeridianCheck,
    SurgeryPresentation,
    cobordism_meridian_check,
    first_homology,
    localize,
    presentation_from_text,
    satellite_cobordism_presentation,
    smith_normal_form,
)


snf_is_valid = assert_valid_snf


class Int(int):
    """An int subclass: an integer input, so accepted like a plain int."""


class TestSmithNormalForm:
    def test_zero_one_by_one(self):
        U, D, V = smith_normal_form([[0]])
        assert (U, D, V) == ([[1]], [[0]], [[1]])

    def test_coprime_diagonal_merges(self):
        M = [[2, 0], [0, 3]]
        U, D, V = smith_normal_form(M)
        assert snf_is_valid(M, U, D, V) == [1, 6]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hyperbolic_pair(self, p):
        M = [[0, p], [p, 0]]
        U, D, V = smith_normal_form(M)
        assert snf_is_valid(M, U, D, V) == [p, p]

    def test_pivot_rule_gives_exact_transforms(self):
        M = [[3, 2], [4, 5]]
        U, D, V = smith_normal_form(M)
        assert snf_is_valid(M, U, D, V) == [1, 7]
        # smallest absolute value is chosen first, so U, D, V are pinned
        U2, D2, V2 = smith_normal_form(M)
        assert (U, D, V) == (U2, D2, V2)

    @pytest.mark.parametrize(
        "M, U, D, V",
        [
            # row 0's minimum is 2; the first unit, row 1's, wins over row 2's
            (
                [[2, 4, 6], [4, 3, 1], [1, 5, 2]],
                [[0, 1, 0], [0, 2, -1], [1, 22, -14]],
                [[1, 0, 0], [0, 1, 0], [0, 0, 76]],
                [[0, 0, 1], [0, 1, -7], [1, -3, 17]],
            ),
            # equal minima at (0, 2) and (1, 0): the row-major one wins
            (
                [[6, 4, 2], [2, 9, 8]],
                [[-3, 1], [-25, 8]],
                [[1, 0, 0], [0, 2, 0]],
                [[0, -2, 7], [1, 6, -22], [2, -7, 23]],
            ),
            # equal minima at (0, 1), (0, 2) and (1, 0): the first column of row 0
            (
                [[7, 2, 2], [2, 5, 3]],
                [[-2, 1], [5, -2]],
                [[1, 0, 0], [0, 1, 0]],
                [[0, -1, 4], [1, -4, 17], [0, 8, -31]],
            ),
            # 2 does not divide 3: the repair step adds row 1 to row 0
            ([[2, 0], [0, 3]], [[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]]),
        ],
        ids=["later-unit", "tie-across-rows", "tie-in-a-row", "repair"],
    )
    def test_pivot_rule_pins_the_transforms(self, M, U, D, V):
        assert smith_normal_form(M) == (U, D, V)
        snf_is_valid(M, U, D, V)

    def test_rectangular(self):
        M = [[2, 4, 4], [-6, 6, 12]]
        U, D, V = smith_normal_form(M)
        assert snf_is_valid(M, U, D, V) == [2, 6]
        Mt = [list(col) for col in zip(*M)]
        U, D, V = smith_normal_form(Mt)
        assert snf_is_valid(Mt, U, D, V) == [2, 6]

    def test_zero_matrix(self):
        M = [[0, 0], [0, 0], [0, 0]]
        U, D, V = smith_normal_form(M)
        assert snf_is_valid(M, U, D, V) == [0, 0]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            smith_normal_form([[1, 2], [3]])

    @pytest.mark.parametrize(
        "M, accepted",
        [
            ([[2.5]], False),
            ([[1, 0], [0, "3"]], False),
            ([[True]], False),
            # an int subclass is an integer: accepted, with the plain-int result
            ([[Int(4), 6], [Int(-2), Int(10)]], True),
        ],
        ids=["float", "str", "bool", "int-subclass"],
    )
    def test_entries_are_checked_not_truncated(self, M, accepted):
        if accepted:
            assert smith_normal_form(M) == smith_normal_form([[int(x) for x in row] for row in M])
            return
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            smith_normal_form(M)

    def test_random_matrices(self):
        rng = random.Random(20260818)
        for _ in range(200):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            U, D, V = smith_normal_form(M)
            diag = snf_is_valid(M, U, D, V)
            assert len([d for d in diag if d]) == sympy.Matrix(M).rank()


def sparse_cases(rng):
    """Sparse 36 x 48 and 48 x 36 matrices, each with four zero rows and
    four zero columns: most of a pivot row and of a V column is zero."""
    for m, n in ((36, 48), (48, 36)) * 2:
        M = [[rng.choice((0,) * 9 + (1, -1, 2, -3, 4)) for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), 4):
            M[i] = [0] * n
        for j in rng.sample(range(n), 4):
            for row in M:
                row[j] = 0
        yield M


def scrambled_blocks(rng):
    """Q * D * Q^T for a unimodular Q and a diagonal D of even entries of
    both signs that form no divisibility chain, at sizes 6 to 36: no
    entry is a unit, so every pivot is a non-unit, many of them negative,
    the gcd scan finds rows that the pivot does not divide and the repair
    runs."""
    for size in (6, 12, 24, 36):
        Q = families.unimodular(rng, size, size)
        D = [[0] * size for _ in range(size)]
        for i in range(size):
            D[i][i] = rng.choice((-4, -6, -10, 12, -18, 30))
        yield families.matmul(families.matmul(Q, D), families.transpose(Q))


def lone_minimum_cases(rng):
    """Tall 48 x 12 and wide 12 x 48 matrices of even entries whose last
    column is zero, but for a lone +-2 in the last row, behind rows whose
    entries are no smaller.  With no unit anywhere, the first pivot scan
    passes every row and keeps each row's minimum; no step touches or
    moves the last row, since its column never becomes the pivot column,
    and its entry divides every pivot.  So its minimum, kept since the
    first step, decides a late pivot: the first step at which the other
    rows hold no +-2 (step 6 to 8 here)."""
    for m, n in ((48, 12), (12, 48)) * 2:
        M = [[rng.choice((0, 0, 2, -2, 4, -6)) for _ in range(n - 1)] + [0] for _ in range(m - 1)]
        M.append([0] * (n - 1) + [rng.choice((2, -2))])
        yield M


def reference_cases():
    """Seeded matrices for the comparison with the reference elimination:
    every m x n shape with m, n <= 9, n = 0 and the empty matrix; pools
    with units, without units (so pivots above 1 and the divisibility
    repair run) and with few values (so minima tie across rows and
    columns); presentations of size 24 to 48; 100-bit entries; sparse
    rectangular matrices (`sparse_cases`); scrambled blocks with negative
    non-unit pivots (`scrambled_blocks`); rows whose kept minimum decides
    a late pivot (`lone_minimum_cases`)."""
    rng = random.Random(20261019)
    pools = (
        (0, 1, -1, 2, 3, -4, 6, 9, -12),
        (0, 0, 2, -2, 3, 4, -6, 9, 12, -15),
        (0, 0, 2, -2, 4),
        (0, 0, 0, 1, -1, 2),
    )
    yield []
    for _ in range(2000):
        m, n = rng.randint(1, 9), rng.randint(0, 9)
        pool = rng.choice(pools)
        yield [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    for size in range(24, 49, 2):
        yield families.random_presentation(rng, size).matrix
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.getrandbits(100) - 2**99 for _ in range(n)] for _ in range(m)]
    yield from sparse_cases(rng)
    yield from scrambled_blocks(rng)
    yield from lone_minimum_cases(rng)


def test_transforms_match_the_reference_elimination():
    mismatched = [M for M in reference_cases() if smith_normal_form(M) != reference_smith_normal_form(M)]
    assert mismatched == []


def test_int_subclass_entries_give_the_plain_results():
    # the elimination updates a row only on the pivot row's support, so an
    # entry it never touches keeps its type: the results must still be the
    # plain-int ones
    rng = random.Random(20261022)
    for M in [*sparse_cases(rng), *scrambled_blocks(rng)]:
        assert smith_normal_form([[Int(x) for x in row] for row in M]) == reference_smith_normal_form(M)
    symmetric = [(M, {"a": M[0], "b": M[-1]}) for M in scrambled_blocks(rng)]
    symmetric += [(p.matrix, p.classes) for p in (families.random_presentation(rng, s) for s in (12, 48))]
    for M, classes in symmetric:
        wrapped = SurgeryPresentation(
            [[Int(x) for x in row] for row in M], {k: [Int(x) for x in v] for k, v in classes.items()}
        )
        assert first_homology(wrapped) == reference_first_homology(SurgeryPresentation(M, classes))


def homology_oracle_cases():
    """Seeded presentations for the comparison with the dot-product route:
    the empty one, some without classes, random symmetric matrices up to
    9 x 9 (a third made singular by a repeated row and column), every
    `random_presentation` size up to 48, and the meridian family (cobordism
    blocks only) at sizes 6, 24 and 48."""
    rng = random.Random(20261020)
    yield SurgeryPresentation([], {})
    yield SurgeryPresentation([], {"x": ()})
    yield SurgeryPresentation([[0, 0], [0, 0]], {})
    yield SurgeryPresentation([[2, 1], [1, 2]], {})
    for _ in range(150):
        n = rng.randint(1, 9)
        pool = rng.choice(((0, 1, -1, 2, 3), (0, 0, 2, -4, 6), (0, 0, 0, 3, -9)))
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                M[i][j] = M[j][i] = rng.choice(pool)
        if n > 1 and rng.random() < 1 / 3:
            a, b = rng.sample(range(n), 2)
            M[b] = list(M[a])
            for row in M:
                row[b] = row[a]
        classes = {f"c{k}": [rng.randint(-6, 6) for _ in range(n)] for k in range(rng.randint(0, 3))}
        yield SurgeryPresentation(M, classes)
    for size in range(1, 49):
        p = families.random_presentation(rng, size)
        yield SurgeryPresentation(p.matrix, p.classes)
    for size in (6, 24, 48):
        for _ in range(3):
            p = families.Presentation(
                tuple(rng.randint(2, 7) for _ in range(size // 3)), (), families.unimodular(rng, size, size)
            )
            yield SurgeryPresentation(p.matrix, p.classes)


def test_first_homology_matches_the_dot_product_route():
    cases = list(homology_oracle_cases())
    assert any(not P.classes for P in cases)
    assert any(first_homology(P).rank and "mu_K_0" not in P.classes for P in cases)  # singular
    assert [P for P in cases if first_homology(P) != reference_first_homology(P)] == []


def _meridian_outcome(P, name0, name1, p):
    """The check's result, or its ClassMismatch message and residual."""
    try:
        return cobordism_meridian_check(P, name0, name1, p)
    except ClassMismatch as e:
        return str(e), e.residual


def test_meridian_check_matches_the_dot_product_route(monkeypatch):
    rng = random.Random(20261021)
    queries = []
    for P in homology_oracle_cases():
        labels = sorted(P.classes)
        if "mu_K_0" in P.classes:  # a block's p is in 2..7: the right p and wrong ones
            i = rng.randrange(len(labels) // 2)
            queries += [(P, f"mu_K_{i}", f"mu_Ptilde_{i}", q) for q in range(1, 8)]
        elif labels:
            queries += [(P, rng.choice(labels), rng.choice(labels), rng.choice((1, 2, 3, 6)))]
    got = [_meridian_outcome(*q) for q in queries]
    monkeypatch.setattr("concordance.surgery.first_homology", reference_first_homology)
    want = [_meridian_outcome(*q) for q in queries]
    assert got == want
    assert {type(outcome) for outcome in got} == {tuple, MeridianCheck}


TREFOIL_SURGERY = [[0]]
UNLINK2 = [[0, 0], [0, 0]]
HOPF = [[0, 1], [1, 0]]


class TestSurgeryPresentation:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            SurgeryPresentation([[0, 1]], {})
        with pytest.raises(ValueError, match=r"symmetric at \(1, 0\)"):
            SurgeryPresentation([[0, 1], [2, 0]], {})
        # the first asymmetric pair in row-major order below the diagonal
        with pytest.raises(ValueError, match=r"symmetric at \(2, 1\)"):
            SurgeryPresentation([[0, 1, 2], [1, 0, 3], [2, 4, 0]], {})
        with pytest.raises(ValueError, match=r"symmetric at \(2, 1\)"):
            SurgeryPresentation([[0, 0, 0, 5], [0, 0, 1, 0], [0, 2, 0, 0], [6, 0, 0, 0]], {})
        with pytest.raises(ValueError, match="length 1, matrix has 2"):
            SurgeryPresentation(UNLINK2, {"mu": (1,)})

    def test_rows_are_checked_in_order(self):
        # row 0 has a bad entry and row 1 is short: the integer check of
        # row 0 comes before the squareness check of row 1
        with pytest.raises(ValueError, match="linking matrix entries must be integers"):
            SurgeryPresentation([[0.5, 1], [1]], {})
        with pytest.raises(ValueError, match="linking matrix must be square"):
            SurgeryPresentation([[0, 1], [0.5]], {})

    def test_entries_are_checked_not_truncated(self):
        with pytest.raises(ValueError, match="linking matrix entries must be integers"):
            SurgeryPresentation([[2.5]], {"mu": (1,)})
        with pytest.raises(ValueError, match="class 'mu' coordinates must be integers"):
            SurgeryPresentation([[2]], {"mu": (1.7,)})
        with pytest.raises(ValueError, match="linking matrix entries must be integers"):
            SurgeryPresentation([[0, True], [True, 0]], {"mu": (1, 0)})
        with pytest.raises(ValueError, match="class 'mu' coordinates must be integers"):
            SurgeryPresentation(HOPF, {"mu": (False, 1)})
        # an int subclass is an integer: accepted, with the plain-int result
        S = SurgeryPresentation([[Int(2), 1], [1, Int(4)]], {"mu": (Int(1), 0), "nu": (1, Int(3))})
        plain = SurgeryPresentation([[2, 1], [1, 4]], {"mu": (1, 0), "nu": (1, 3)})
        assert first_homology(S) == first_homology(plain)
        assert presentation_to_text(S) == presentation_to_text(plain)

    def test_checked_data_cannot_be_changed(self):
        # checked once when built: the matrix and classes are read-only
        M = [[0, 2], [2, 0]]
        classes = {"mu": [1, 0]}
        S = SurgeryPresentation(M, classes)
        M[0][0] = 0.5
        classes["mu"][0] = 0.5
        assert S.matrix == ((0, 2), (2, 0))
        assert S.classes == {"mu": (1, 0)}
        with pytest.raises(TypeError):
            S.matrix[0] = (0.5, 2)
        with pytest.raises(TypeError):
            S.matrix[0][0] = 0.5
        with pytest.raises(TypeError):
            S.classes["mu"] = (0.5, 0)
        with pytest.raises(TypeError):
            S.classes["nu"] = (0, 1)
        assert first_homology(S).describe() == "Z/2 + Z/2"

    def test_repr(self):
        S = SurgeryPresentation(HOPF, {"a": (1, 0)}, name="hopf")
        assert "hopf" in repr(S)
        assert "2x2" in repr(S)


class TestFirstHomology:
    def test_zero_surgery_on_a_knot(self):
        S = SurgeryPresentation(TREFOIL_SURGERY, {"mu": (1,)})
        G = first_homology(S)
        assert (G.rank, G.torsion) == (1, ())
        assert G.images["mu"] == (1,)
        assert G.describe() == "Z"

    def test_zero_framed_unlink(self):
        G = first_homology(SurgeryPresentation(UNLINK2, {}))
        assert (G.rank, G.torsion) == (2, ())
        assert G.describe() == "Z + Z"

    def test_hopf_link_is_trivial(self):
        S = SurgeryPresentation(HOPF, {"a": (1, 0), "b": (0, 1)})
        G = first_homology(S)
        assert (G.rank, G.torsion) == (0, ())
        assert G.images["a"] == ()
        assert G.describe() == "0"

    def test_lens_space(self):
        S = SurgeryPresentation([[4]], {"mu": (1,), "five": (5,)})
        G = first_homology(S)
        assert (G.rank, G.torsion) == (0, (4,))
        # torsion coordinates are reduced into [0, d)
        assert G.images["mu"] == (1,)
        assert G.images["five"] == (1,)
        assert G.describe() == "Z/4"

    def test_mixed_group(self):
        S = SurgeryPresentation([[12, 0], [0, 0]], {"x": (5, 7)})
        G = first_homology(S)
        assert (G.rank, G.torsion) == (1, (12,))
        assert G.images["x"] == (5, 7)
        assert G.describe() == "Z/12 + Z"

    def test_chain_is_enforced_by_description_type(self):
        with pytest.raises(ValueError, match="divisibility chain"):
            AbelianGroupDescription(rank=0, torsion=(4, 6), images={})
        with pytest.raises(ValueError, match="< 2"):
            AbelianGroupDescription(rank=0, torsion=(1,), images={})

    @pytest.mark.parametrize("image", [(7, 3), (-1, 3), (6, 3), (1,), (1, 3, 0)])
    def test_images_are_checked_by_description_type(self, image):
        # one coordinate per factor and per free rank, each torsion one
        # in [0, d_i): (7, 3) was accepted, and localize(G, 1) != G for it
        with pytest.raises(ValueError, match="AbelianGroupDescription: the image .* of class 'x'"):
            AbelianGroupDescription(rank=1, torsion=(6,), images={"x": image})
        G = AbelianGroupDescription(rank=1, torsion=(6,), images={"x": (5, -3)})
        assert localize(G, 1) == G

    def test_random_against_rank_and_determinant(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 6)
            L = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    L[i][j] = L[j][i] = rng.randint(-5, 5)
            G = first_homology(SurgeryPresentation(L, {}))
            Lm = sympy.Matrix(L)
            assert G.rank == n - Lm.rank()
            if G.rank == 0:
                order = 1
                for d in G.torsion:
                    order *= d
                assert order == abs(Lm.det())


class TestLocalize:
    def test_strips_p_primary_part(self):
        S = SurgeryPresentation([[12, 0], [0, 0]], {"x": (5, 7)})
        G = first_homology(S)
        G2 = localize(G, 2)
        assert (G2.rank, G2.torsion) == (1, (3,))
        assert G2.images["x"] == (5 % 3, 7)
        G3 = localize(G, 3)
        assert (G3.rank, G3.torsion) == (1, (4,))
        assert G3.images["x"] == (1, 7)

    def test_composite_p_inverts_each_prime_factor(self):
        # inverting 4 inverts 2, and inverting 6 inverts 2 and 3
        G = AbelianGroupDescription(rank=0, torsion=(2, 12), images={"x": (1, 5)})
        G4 = localize(G, 4)
        assert (G4.torsion, G4.images["x"]) == ((3,), (2,))
        assert localize(G, 6).torsion == ()

    def test_factor_can_vanish(self):
        G = AbelianGroupDescription(rank=0, torsion=(8,), images={"x": (3,)})
        G2 = localize(G, 2)
        assert (G2.rank, G2.torsion) == (0, ())
        assert G2.images["x"] == ()

    def test_identity_and_idempotence(self):
        G = AbelianGroupDescription(rank=1, torsion=(6, 12), images={"x": (1, 5, -2)})
        assert localize(G, 1) == G
        G2 = localize(G, 2)
        assert localize(G2, 2) == G2
        assert (G2.rank, G2.torsion) == (1, (3, 3))

    def test_validation(self):
        G = AbelianGroupDescription(rank=0, torsion=(), images={})
        for bad in (0, -2, 2.0):
            with pytest.raises(ValueError, match="p >= 1"):
                localize(G, bad)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cobordism_sum(ps, torsion, ops):
    """Cobordism blocks (one per p) and torsion blocks [d] in the basis
    P = E_m ... E_1, where (i, j, c) adds c times row j to row i.

    Returns the presentation P L P^T with classes mu_K_k = P e_{3k} and
    mu_Ptilde_k = P e_{3k+1}, and for each mu_Ptilde_k the splitting
    functional f P^-1, where f = p e_{3k} + e_{3k+1} kills every column
    of the block.  P^-1 = E_1^-1 ... E_m^-1 is built alongside P."""
    blocks = [[[0, 0, -1], [0, 0, p], [-1, p, 0]] for p in ps]
    blocks += [[[d]] for d in torsion]
    n = sum(len(b) for b in blocks)
    L = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            L[at + i][at : at + len(b)] = row
        at += len(b)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    P_inv = [row[:] for row in P]
    for i, j, c in ops:
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in P_inv:
            row[j] -= c * row[i]
    PL = [[_dot(P[i], [L[a][c] for a in range(n)]) for c in range(n)] for i in range(n)]
    matrix = [[_dot(PL[i], P[j]) for j in range(n)] for i in range(n)]
    classes, split = {}, {}
    for k, p in enumerate(ps):
        classes[f"mu_K_{k}"] = tuple(P[i][3 * k] for i in range(n))
        classes[f"mu_Ptilde_{k}"] = tuple(P[i][3 * k + 1] for i in range(n))
        split[f"mu_Ptilde_{k}"] = tuple(
            p * P_inv[3 * k][c] + P_inv[3 * k + 1][c] for c in range(n)
        )
    return SurgeryPresentation(matrix, classes), split


class TestMeridianCheck:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_satellite_cobordism_passes(self, p):
        S = satellite_cobordism_presentation(p)
        result = cobordism_meridian_check(S, "mu_K", "mu_Ptilde", p)
        assert result.homology.describe() == "Z"
        assert result.homology.images["mu_K"] == (p,)
        assert result.homology.images["mu_Ptilde"] == (1,)
        assert any("free rank-one summand" in note for note in result.notes)

    def test_both_classes_null_holds_trivially(self):
        S = SurgeryPresentation(HOPF, {"mu_0": (1, 0), "mu_1": (1, 0)})
        result = cobordism_meridian_check(S, "mu_0", "mu_1", 3)
        assert result.homology.describe() == "0"
        assert any("trivially" in note for note in result.notes)

    def test_integral_mismatch_carries_residual(self):
        S = SurgeryPresentation([[4, 0], [0, 0]], {"a": (1, 0), "b": (0, 1)})
        with pytest.raises(ClassMismatch, match="residual") as info:
            cobordism_meridian_check(S, "a", "b", 2)
        assert info.value.residual == (1, -2)

    def test_torsion_component_fails(self):
        # y has zero free part, so finite order: no free summand
        S = SurgeryPresentation([[9, 0], [0, 0]], {"x": (6, 0), "y": (3, 0)})
        with pytest.raises(ClassMismatch, match="torsion components"):
            cobordism_meridian_check(S, "x", "y", 2)

    def test_torsion_coordinate_with_free_part_holds(self):
        # y = (3, 1) in Z/9 + Z spans a free summand, with complement Z/9
        S = SurgeryPresentation([[9, 0], [0, 0]], {"x": (6, 2), "y": (3, 1)})
        result = cobordism_meridian_check(S, "x", "y", 2)
        assert result.localized.images["y"] == (3, 1)
        assert any("free rank-one summand" in note for note in result.notes)

    def test_torsion_probe(self):
        # the cobordism block for p = 2 plus a [3] block, after adding row
        # 1 to row 3: H = Z/3 + Z, and mu_Ptilde_0 has a torsion coordinate
        S, split = _cobordism_sum((2,), (3,), [(3, 1, 1)])
        result = cobordism_meridian_check(S, "mu_K_0", "mu_Ptilde_0", 2)
        assert result.homology.describe() == "Z/3 + Z"
        assert result.localized.images["mu_Ptilde_0"][0] != 0
        assert split["mu_Ptilde_0"] == (2, 1, 0, 0)

    def test_seeded_basis_changes_against_splitting_functional(self):
        r = random.Random(20111)
        torsion_coordinates = 0
        for _ in range(40):
            ps = tuple(r.randint(2, 7) for _ in range(r.randint(1, 2)))
            torsion = tuple(r.choice((2, 3, 4, 6, 9)) for _ in range(r.randint(1, 3)))
            n = 3 * len(ps) + len(torsion)
            ops = [(*r.sample(range(n), 2), r.choice((-1, 1))) for _ in range(2 * n)]
            S, split = _cobordism_sum(ps, torsion, ops)
            for k, p in enumerate(ps):
                x, y = f"mu_K_{k}", f"mu_Ptilde_{k}"
                g = split[y]
                # the oracle: g kills every relation, g(y) = 1 and g(x) = p,
                # so y spans a free summand and x = p * y splits off with it
                assert all(
                    sum(g[a] * S.matrix[a][c] for a in range(n)) == 0
                    for c in range(n)
                )
                assert _dot(g, S.classes[y]) == 1
                assert _dot(g, S.classes[x]) == p
                result = cobordism_meridian_check(S, x, y, p)
                kt = len(result.localized.torsion)
                torsion_coordinates += any(result.localized.images[y][:kt])
                with pytest.raises(ClassMismatch, match="residual"):
                    cobordism_meridian_check(S, x, y, p + 1)
        assert torsion_coordinates > 0

    def test_content_must_be_a_power_of_p(self):
        S = SurgeryPresentation([[0]], {"x": (6,), "y": (2,)})
        with pytest.raises(ClassMismatch, match="content 2"):
            cobordism_meridian_check(S, "x", "y", 3)
        # a content that is a power of p becomes a unit once p is inverted
        S = SurgeryPresentation([[0]], {"x": (4,), "y": (2,)})
        result = cobordism_meridian_check(S, "x", "y", 2)
        assert any("summand" in note for note in result.notes)

    def test_unknown_class_and_bad_p(self):
        S = satellite_cobordism_presentation(2)
        with pytest.raises(ValueError, match="no class named 'mu_X'"):
            cobordism_meridian_check(S, "mu_X", "mu_Ptilde", 2)
        with pytest.raises(ValueError, match="p >= 1"):
            cobordism_meridian_check(S, "mu_K", "mu_Ptilde", 0)
        with pytest.raises(ValueError, match="p >= 1"):
            satellite_cobordism_presentation(-1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_permutation_invariance(self, p):
        import itertools

        S = satellite_cobordism_presentation(p)
        n = S.size
        for perm in itertools.permutations(range(n)):
            matrix = [[S.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            classes = {
                label: tuple(vec[perm[i]] for i in range(n))
                for label, vec in S.classes.items()
            }
            result = cobordism_meridian_check(
                SurgeryPresentation(matrix, classes), "mu_K", "mu_Ptilde", p
            )
            assert result.homology.describe() == "Z"

    def test_permutation_invariance_of_failure(self):
        S = SurgeryPresentation([[4, 0], [0, 0]], {"a": (1, 0), "b": (0, 1)})
        flipped = SurgeryPresentation([[0, 0], [0, 4]], {"a": (0, 1), "b": (1, 0)})
        for pres in (S, flipped):
            with pytest.raises(ClassMismatch):
                cobordism_meridian_check(pres, "a", "b", 2)


class TestPresentationFiles:
    def test_round_trip(self):
        S = satellite_cobordism_presentation(3)
        S2 = presentation_from_text(presentation_to_text(S))
        assert S2.matrix == S.matrix
        assert S2.classes == S.classes

    def test_packaged_presentation_matches_builder(self):
        path = resources.files("concordance") / "_data" / "satellite-cobordism-p2.pres"
        S = presentation_from_text(path.read_text())
        built = satellite_cobordism_presentation(2)
        assert S.matrix == built.matrix
        assert S.classes == built.classes

    def test_comments_and_blanks_ignored(self):
        S = presentation_from_text(
            "# header\n\nM 1   # inline\n0\n\nC mu 1  # class\n"
        )
        assert S.matrix == ((0,),)
        assert S.classes == {"mu": (1,)}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Q 1\n", "line 1: unknown record 'Q'"),
            ("M x\n", "M needs a size"),
            ("M -1\n", "line 1: M needs a size"),
            ("M 2 x\n0 0\n0 0\n", "line 1: M needs a size"),
            ("M 2\n0 0\n", "matrix needs 2 rows"),
            ("M 2\n0 0 0\n0 0\n", "line 2: expected 2 entries, got 3"),
            ("M 1\na\n", "matrix rows are integers"),
            ("M 1\n0\nC\n", "C needs a name"),
            ("M 1\n0\nC mu x\n", "class coordinates are integers"),
            ("M 1\n0\nM 1\n0\n", "second matrix block"),
            ("C mu 1\n", "no matrix block"),
            ("M 2\n0 5\n5 1\nC mu 1\n", "length 1, matrix has 2"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            presentation_from_text(text)

    def test_duplicate_class_is_an_error(self):
        with pytest.raises(ValueError, match="line 4: second class named 'mu'"):
            presentation_from_text("M 1\n2\nC mu 1\nC mu 3\n")


DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "snf_digests.json"


def digest_cases():
    """Seeded cases by name: a dense and a sparse m x n matrix for every m,
    n in 1..9, plus n = 0 and the empty matrix; then a cobordism sum of
    every size from 6 to 48, with its meridian classes."""
    rng = random.Random(20261018)
    yield "0x0", []
    for m in range(1, 10):
        for n in range(10):
            yield f"{m}x{n} dense", [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            yield f"{m}x{n} sparse", [
                [rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 4, 6)) for _ in range(n)]
                for _ in range(m)
            ]
    for size in range(6, 49):
        blocks = rng.randint(1, size // 3)
        ps = tuple(rng.randint(2, 7) for _ in range(blocks))
        torsion = tuple(rng.choice((2, 3, 4, 6, 9)) for _ in range(size - 3 * blocks))
        ops = [(*rng.sample(range(size), 2), rng.choice((-1, 1))) for _ in range(2 * size)]
        yield f"cobordism sum {size}", _cobordism_sum(ps, torsion, ops)[0]


def record_digests():
    """sha256 of each case's JSON: (U, D, V), and for a presentation also
    its first homology (rank, torsion, images)."""
    digests = {}
    for name, case in digest_cases():
        if isinstance(case, SurgeryPresentation):
            G = first_homology(case)
            value = [smith_normal_form(case.matrix), G.rank, G.torsion, G.images]
        else:
            value = smith_normal_form(case)
        digests[name] = hashlib.sha256(json.dumps(value).encode()).hexdigest()
    return digests


def test_transforms_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    got = record_digests()
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record_digests(), indent=1) + "\n")
