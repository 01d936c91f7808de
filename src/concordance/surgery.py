"""Homology of framed-link surgery presentations.

A surgery presentation is a symmetric integer linking matrix (framings on
the diagonal) together with named classes written in the meridian basis.
First homology of the presented manifold is the cokernel of the matrix,
read off an exact Smith normal form, so named classes can be followed
into the canonical decomposition Z^rank + Z/d_1 + ... + Z/d_k
(d_1 | d_2 | ...).  One elimination serves both public routes: it runs
on the rows [M | B] and on V kept as a list of its columns, and every
choice it makes reads only M's columns.  It diagonalizes first; then a
chain pass replaces each pair d_i, d_j (i < j) where d_i does not
divide d_j by their gcd and lcm, through one column addition, one 2 x 2
Bezout step on rows i and j and one column subtraction, which keep M's
block diagonal.  `smith_normal_form` puts I_m in
B and I_n in V to build U and V; `first_homology` puts the class vectors
in B and leaves V's columns empty, so B ends as their images U*v without
U or V ever being formed.  The pivot search keeps each row's smallest
nonzero |entry| until a row operation changes the row: column
operations change only the pivot row and V, and column swaps permute
the entries it is taken over (`_eliminate`).
One rule writes a class's coordinates: reduce each mod its modulus (0 for
a free one) and drop those of modulus 1.  The Smith diagonal reads units,
the torsion chain, zeros, and inverting p keeps that order.

`cobordism_meridian_check` verifies the two-sided meridian condition for
a homology cobordism built from such a presentation: the first meridian
class must equal p times the second integrally, and after inverting p
the common class must span a free rank-one summand, so that the two
meridians differ by a positive unit of Z[1/p].  The satellite
cobordism's presentation is built for each p
(`satellite_cobordism_presentation`), any other one from Python
(`SurgeryPresentation`); no presentation is read from a file.
"""

from __future__ import annotations

import itertools
import math
import types

from .cabling import HypothesisNotMet
from .laurent import Record, all_int, all_int_rows, is_int

__all__ = [
    "AbelianGroupDescription", "ClassMismatch", "MeridianCheck", "SurgeryPresentation",
    "cobordism_meridian_check", "first_homology", "localize", "satellite_cobordism_presentation",
    "smith_normal_form",
]


class ClassMismatch(HypothesisNotMet):
    """The tracked classes violate the meridian condition; carries evidence.

    Attributes: residual, the offending coordinate vector (or None when the
    failure is about summand shape rather than an equation).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _eliminate(M, B, V):
    """The Smith elimination of the m x n integer matrix M, carrying B
    and V along; returns the working rows, [D | U*B].

    The working rows W are [M | B] (B: m rows of any one length); V is a
    list of n columns of any one length, changed in place.  Row
    operations act on whole rows of W, column operations on W's first n
    columns and on V's columns, and the sign fix negates whole rows of
    W.  So B ends as U*B and V as V times the column transform.  Every
    choice reads only W's first n columns: whatever B and V hold, the
    operations, and with them U and D, are those of `smith_normal_form`.

    The elimination only diagonalizes; the sign fix then makes the
    diagonal nonnegative, and the chain pass makes its nonzero entries,
    which come first since the elimination stops at a zero block, a
    divisibility chain.  For each pair i < j of them, in order, where
    d_i does not divide d_j, with g = gcd(d_i, d_j) and s * d_i + u * d_j
    = g, it adds V's column j to column i, takes rows i and j of W's
    right block to [[s, u], [-d_j/g, d_i/g]] times them, and subtracts
    u * d_j/g times V's column i from column j.  On M's block these steps
    take diag(d_i, d_j) to [[d_i, 0], [d_j, d_j]], then [[g, u * d_j],
    [0, d_i * d_j/g]], then diag(g, d_i * d_j/g), and touch no other
    row or column: so M's block stays diagonal, and only the two entries
    are written.  After the pairs of i, d_i divides every later entry,
    and the later pairs keep that, since gcds and lcms of multiples of
    d_i are multiples of it.  A diagonal of units, and one that is
    already a chain, runs no step.

    Rows t and below are zero left of column t, so `row_i -= q * row_t`
    is done in place on the columns where row t is nonzero (its
    support): W's rows are lists built here.  Three facts spare more
    work without changing a single operation:

    - a step's column operations change only row t and V (in V, only
      where column t is nonzero): after the row loop, column t is zero
      but at row t, since the rows below were just cleared and a
      finished pivot row is zero off its diagonal;
    - column swaps permute columns t and right: they change rows t and
      below, and swap two of V's columns whole;
    - after each step, the rows below row t are zero in column t.

    So `low[i]`, row i's smallest nonzero |entry| in columns t and right
    (0 for a zero row), stays exact while row i is unchanged: a column
    swap permutes the entries it is taken over, and a finished column
    drops a zero.  A row operation clears it, and a row swap swaps it
    with its row.  The pivot row's goes stale under the column
    operations but is never read: later scans start below it, and a
    promotion swaps it to a row holding the old pivot in column t, which
    the next pass reduces and so clears.  The pivot scan fills `low`
    lazily, row by row: a later row wins only with a strictly smaller
    minimum, a minimum of 1 ends the scan, and the column is the first
    in the row that holds the minimum, so the pivot is the row-major
    minimum of (|entry|, i, j).  M is not checked here; its callers
    check it (`smith_normal_form`, or `SurgeryPresentation` when it is
    built).
    """
    m = len(M)
    n = len(M[0]) if m else 0
    W = [list(row) + b for row, b in zip(M, B)]
    low = [None] * m

    def row_swap(i, k):
        W[i], W[k] = W[k], W[i]
        low[i], low[k] = low[k], low[i]

    def col_swap(j, k):
        for row in W[t:]:
            row[j], row[k] = row[k], row[j]
        V[j], V[k] = V[k], V[j]

    for t in range(min(m, n)):
        best = 0
        for i in range(t, m):
            least = low[i]
            if least is None:
                least = low[i] = min(map(abs, filter(None, W[i][t:n])), default=0)
            if least and (not best or least < best):
                best, at = least, i
                if least == 1:
                    break
        if not best:
            break
        row_swap(t, at)
        col_swap(t, t + [*map(abs, W[t][t:n])].index(best))
        while True:
            top = W[t]
            p = top[t]
            # row_i -= q * row_t, on row t's support only
            support = [*zip(itertools.compress(itertools.count(), top), filter(None, top))]
            left = []
            for i in range(t + 1, m):
                row = W[i]
                if row[t]:
                    q = row[t] // p
                    for j, x in support:
                        row[j] -= q * x
                    low[i] = None
                    if row[t]:
                        left.append(i)
            if left:
                # a remainder smaller than the pivot surfaced; promote it
                row_swap(t, min(left, key=lambda i: (abs(W[i][t]), i)))
                continue
            # col_j -= q * col_t, on row t and on V where column t is nonzero
            column = V[t]
            entries = [*zip(itertools.compress(itertools.count(), column), filter(None, column))]
            for j in range(t + 1, n):
                if top[j]:
                    q = top[j] // p
                    top[j] -= q * p
                    column = V[j]
                    for k, x in entries:
                        column[k] -= q * x
                    if top[j]:
                        left.append(j)
            if not left:
                break
            col_swap(t, min(left, key=lambda j: (abs(top[j]), j)))
    diag = [row[i] for i, row in enumerate(W[:n])]
    for i, d in enumerate(diag):
        if d < 0:
            W[i] = [-x for x in W[i]]
            diag[i] = -d
    # the chain pass: (d_i, d_j) -> (g, d_i * d_j / g) where d_i does not divide d_j
    rank = len(diag) - diag.count(0)
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = diag[i], diag[j]
            if b % a:
                g = math.gcd(a, b)
                a, b = a // g, b // g
                s = pow(a, -1, b)
                u = (1 - s * a) // b
                # now a = d_i/g and b = d_j/g, with s * a + u * b = 1
                V[i] = [x + y for x, y in zip(V[i], V[j])]
                c = u * b
                V[j] = [y - c * x for x, y in zip(V[i], V[j])]
                x_i, x_j = W[i][n:], W[j][n:]
                W[i][n:] = [s * x + u * y for x, y in zip(x_i, x_j)]
                W[j][n:] = [a * y - b * x for x, y in zip(x_i, x_j)]
                diag[i] = W[i][i] = g
                diag[j] = W[j][j] = a * b * g
    return W


def _identity(k):
    """The k x k identity matrix as k new lists."""
    return [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]


def smith_normal_form(M):
    """Diagonalize an integer matrix: U * M * V = D.

    U and V are unimodular; D is diagonal, nonnegative, and its nonzero
    entries form a divisibility chain d_1 | d_2 | ... followed by zeros.
    The pivot rule (smallest nonzero absolute value, ties in row-major
    order) makes the transforms deterministic.

    It is the module's one elimination (`_eliminate`), run on [M | I_m]
    with V = I_n kept as its n columns.  A row operation builds U in the
    right block and a column operation builds V's columns; at the end
    the rows are [D | U], and V is transposed once into rows.

    Returns (U, D, V) as lists of lists.
    """
    n = len(M[0]) if M else 0
    if any(len(row) != n for row in M):
        raise ValueError("matrix rows have unequal lengths")
    if not all_int_rows(M):
        raise ValueError("matrix entries must be integers")
    V = _identity(n)
    W = _eliminate(M, _identity(len(M)), V)
    return [row[n:] for row in W], [row[:n] for row in W], list(map(list, zip(*V)))


class SurgeryPresentation:
    """Symmetric linking matrix plus named classes in the meridian basis,
    checked once when built: `matrix` is a tuple of integer tuples and
    `classes` a read-only mapping from label to integer tuple."""

    def __init__(self, matrix, classes, name=None):
        self.matrix = tuple(map(tuple, matrix))
        n = len(self.matrix)
        # the rows rule accepts; the row loop decides anything else, in order
        if {*map(len, self.matrix)} - {n} or not all_int_rows(self.matrix):
            for row in self.matrix:
                if len(row) != n:
                    raise ValueError("linking matrix must be square")
                if not all_int(row):
                    raise ValueError("linking matrix entries must be integers")
        if self.matrix != tuple(zip(*self.matrix)):
            i, j = next((i, j) for i in range(n) for j in range(i) if self.matrix[i][j] != self.matrix[j][i])
            raise ValueError(f"linking matrix not symmetric at ({i}, {j})")
        checked = {}
        for label, vector in dict(classes).items():
            vec = tuple(vector)
            if len(vec) != n:
                raise ValueError(f"class {label!r} has length {len(vec)}, matrix has {n}")
            if not all_int(vec):
                raise ValueError(f"class {label!r} coordinates must be integers")
            checked[str(label)] = vec
        self.classes = types.MappingProxyType(checked)
        self.name = name

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        n = len(self.matrix)
        return (
            f"SurgeryPresentation({n}x{n}{label}, "
            f"classes={sorted(self.classes)})"
        )


class AbelianGroupDescription(Record):
    """Canonical form Z^rank + Z/d_1 + ... + Z/d_k with tracked images.

    Class images are coordinate tuples, torsion coordinates first (in
    chain order, each reduced into [0, d_i)), then the free coordinates.
    """

    rank: int
    torsion: tuple[int, ...]
    images: dict[str, tuple[int, ...]]

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("invariant factors fail the divisibility chain")
        size = len(self.torsion) + self.rank
        for label, coords in self.images.items():
            if len(coords) != size or not all(0 <= x < d for x, d in zip(coords, self.torsion)):
                raise ValueError(f"AbelianGroupDescription: the image {coords!r} of class {label!r} is not"
                                 f" {size} coordinates, each torsion one in [0, d_i)")

    def describe(self):
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.rank
        return " + ".join(parts) if parts else "0"


def _coordinates(vector, moduli):
    """Each entry reduced mod its modulus (0 for a free one), the entries
    whose modulus is 1 dropped: with a Smith diagonal's moduli (units, the
    torsion chain, zeros), a class's coordinates in Z/d_1 + ... + Z^rank."""
    return tuple(x % d if d else x for x, d in zip(vector, moduli) if d != 1)


def first_homology(presentation, labels=None):
    """Cokernel of the linking matrix, with the images of the classes
    named in labels tracked (of every class when labels is None).

    A class v maps to U * v, written in the Smith basis by `_coordinates`,
    where U is the row transform of `smith_normal_form`.  Here the same
    elimination runs on [M | C], the columns of C being the class vectors,
    with V's columns empty, so no V is kept.  No choice of the elimination
    reads the right block, so its row operations are those that turn I_m
    into U, and the block ends as U * C: the images, integer for integer,
    without U or V, read off by one transpose.  The presentation was
    checked when it was built.
    """
    M = presentation.matrix
    n = len(M)
    classes = presentation.classes if labels is None else {label: presentation.classes[label] for label in labels}
    # classes in and images out by one transpose each; that of no classes, or of no rows, is empty
    C = [*map(list, zip(*classes.values()))] or [[]] * n
    W = _eliminate(M, C, [()] * n)
    diag = [row[i] for i, row in enumerate(W)]
    images = zip(*(row[n:] for row in W)) if n else itertools.repeat(())
    return AbelianGroupDescription(
        rank=diag.count(0),
        torsion=tuple(d for d in diag if d >= 2),
        images={label: _coordinates(image, diag) for label, image in zip(classes, images)},
    )


def _prime_to(d, p):
    """d with every prime factor of p divided out; d must be nonzero."""
    while (g := math.gcd(d, p)) > 1:
        d //= g
    return d


def localize(group, p):
    """Invert p: strip from every invariant factor the primes dividing p.

    Rank is unchanged; torsion coordinates of class images are reduced
    into the surviving factors.  Idempotent; p = 1 is the identity.
    """
    if not is_int(p) or p < 1:
        raise ValueError(f"need an integer p >= 1, got {p!r}")
    moduli = [_prime_to(d, p) for d in group.torsion] + [0] * group.rank
    return AbelianGroupDescription(
        rank=group.rank,
        torsion=tuple(d for d in moduli if d >= 2),
        images={
            label: _coordinates(coords, moduli)
            for label, coords in group.images.items()
        },
    )


class MeridianCheck(Record):
    """Successful verification of the rel-meridians condition.  The two
    groups carry the images of class0 and class1 only."""

    class0: str
    class1: str
    p: int
    homology: AbelianGroupDescription
    localized: AbelianGroupDescription
    notes: tuple[str, ...]


def cobordism_meridian_check(presentation, name0, name1, p):
    """Verify that class name0 equals p times class name1, honestly.

    Two conditions, matching "homology cobordant rel meridians" over
    Z[1/p]: (i) in the integral homology of the presentation the classes
    satisfy image(name0) = p * image(name1); (ii) after inverting p the
    common class spans a free rank-one summand, unless both images
    already vanish.  In T + Z[1/p]^r that holds exactly when the free
    part has content a unit of Z[1/p], whatever the torsion components:
    the functional dual to the primitive free part splits the class off.
    A class with zero free part has finite order.  Raises ClassMismatch
    with the residual as evidence when either fails.
    """
    if not is_int(p) or p < 1:
        raise ValueError(f"need an integer p >= 1, got {p!r}")
    for label in (name0, name1):
        if label not in presentation.classes:
            raise ValueError(f"presentation has no class named {label!r}")
    # no choice of the elimination reads the class columns: the other classes change neither image
    group = first_homology(presentation, (name0, name1))
    residual = _coordinates(
        [a - p * b for a, b in zip(group.images[name0], group.images[name1])],
        group.torsion + (0,) * group.rank,
    )
    if any(residual):
        raise ClassMismatch(
            f"{name0} != {p} * {name1} in {group.describe()}: "
            f"residual {residual}",
            residual=residual,
        )
    localized = localize(group, p)
    v0 = localized.images[name0]
    v1 = localized.images[name1]
    notes = [f"integral check: {name0} = {p} * {name1} in {group.describe()}"]
    if any(v0) or any(v1):
        kt = len(localized.torsion)
        if any(v1[:kt]) and not any(v1[kt:]):
            raise ClassMismatch(
                f"{name1} has torsion components {v1[:kt]} after inverting "
                f"{p}; it cannot span a free summand",
                residual=v1,
            )
        content = math.gcd(*v1[kt:]) if v1[kt:] else 0
        if not content or _prime_to(content, p) != 1:
            raise ClassMismatch(
                f"{name1} has content {content} after inverting {p}, not a "
                f"power of {p}; it spans a finite-index subgroup, not a "
                f"summand",
                residual=v1,
            )
        notes.append(
            f"after inverting {p}: {name1} spans a free rank-one summand "
            f"of {localized.describe()}, and {name0} = {p} * {name1} "
            f"differs from it by the unit {p}"
        )
    else:
        notes.append(
            f"both classes vanish in {localized.describe()}; "
            "condition holds trivially"
        )
    return MeridianCheck(
        class0=name0,
        class1=name1,
        p=p,
        homology=group,
        localized=localized,
        notes=tuple(notes),
    )


def satellite_cobordism_presentation(p):
    """Linking-matrix model of the satellite cobordism's middle level.

    Components: the companion K and the pattern axis P-tilde, both
    0-framed, plus the 0-framed 2-handle H that links K once (negatively,
    so the induced relation reads mu_K = +p * mu_Ptilde) and P-tilde p
    times.  Its homology is Z generated by mu_Ptilde, with mu_K mapping
    to p times the generator.
    """
    if not is_int(p) or p < 1:
        raise ValueError(f"need an integer p >= 1, got {p!r}")
    return SurgeryPresentation(
        [[0, 0, -1], [0, 0, p], [-1, p, 0]],
        {"mu_K": (1, 0, 0), "mu_Ptilde": (0, 1, 0)},
        name=f"satellite-cobordism-p{p}",
    )
