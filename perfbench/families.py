"""Seeded generators for the benchmark's inputs.

Every generator takes a ``random.Random`` and returns plain data (tuples
and lists of ints), so the oracles can read the same description the
library is given and nothing here imports ``concordance``.

Knots are connected sums of summands.  A summand is ``(kind, param,
mirrored)`` with kind ``"torus"`` (the torus knot T(2, param), param odd
and at least 3) or ``"twist"`` (Seifert matrix ``[[-1, 1], [0, param]]``).
The Seifert matrix of a sum is the block sum of its summands' matrices,
scrambled by a random unimodular congruence P V P^T, which changes
neither the Alexander polynomial nor the signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Knot:
    """A connected sum with its scrambling matrix (None: unscrambled)."""

    summands: tuple
    scramble: tuple | None = None

    @property
    def genus(self) -> int:
        return sum(summand_genus(s) for s in self.summands)

    def seifert(self) -> list[list[int]]:
        v = block_sum([summand_matrix(s) for s in self.summands])
        if self.scramble is None:
            return v
        p = [list(r) for r in self.scramble]
        return matmul(matmul(p, v), transpose(p))

    def label(self) -> str:
        parts = []
        for kind, param, mirrored in self.summands:
            name = f"T(2,{param})" if kind == "torus" else f"Tw({param})"
            parts.append(("m" if mirrored else "") + name)
        return "#".join(parts) + ("" if self.scramble is None else "~")


def summand_genus(s) -> int:
    kind, param, _ = s
    return (param - 1) // 2 if kind == "torus" else 1


def summand_matrix(s) -> list[list[int]]:
    kind, param, mirrored = s
    if kind == "torus":
        n = param - 1
        v = [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    else:
        v = [[-1, 1], [0, param]]
    if mirrored:
        v = [[-x for x in row] for row in transpose(v)]
    return v


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def block_sum(blocks) -> list[list[int]]:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def unimodular(rng, n: int, steps: int) -> tuple:
    """A random matrix of determinant +-1: a permutation with random signs,
    then ``steps`` elementary row additions with multipliers +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((1, -1))
    if n > 1:
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((1, -1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


TWISTS = (-3, -2, 1, 2, 3, 4)


def random_summand(rng, max_genus: int, torus_share: float = 0.6, mirrored=None):
    """One summand of genus at most ``max_genus``; mirrored at random
    unless ``mirrored`` is given."""
    torus = [q for q in (3, 5, 7, 9) if (q - 1) // 2 <= max_genus]
    flip = rng.random() < 0.5 if mirrored is None else mirrored
    if rng.random() < torus_share:
        return ("torus", rng.choice(torus), flip)
    return ("twist", rng.choice(TWISTS), flip)


def scrambled(rng, summands, density: int = 1) -> Knot:
    """The sum of the summands under a random unimodular congruence made of
    ``density`` row additions per row; 4 leaves almost no zero entry."""
    n = 2 * sum(summand_genus(s) for s in summands)
    return Knot(tuple(summands), unimodular(rng, n, density * n))


def random_knot(rng, genus: int, first=(), density: int = 1, **kinds) -> Knot:
    """A scrambled sum of exactly the given genus: the summands ``first``,
    then random ones (``kinds`` as for random_summand)."""
    summands = list(first)
    left = genus - sum(summand_genus(s) for s in summands)
    while left > 0:
        s = random_summand(rng, left, **kinds)
        summands.append(s)
        left -= summand_genus(s)
    return scrambled(rng, summands, density)


def pattern_events(n: int) -> list[tuple[str, int]]:
    """Annular front on n eastward seam strands whose crossings X 0 .. X n-2
    cycle the strands once: one component of winding n, no cusps."""
    return [("X", i) for i in range(n - 1)]


def cobordism_block(p: int) -> list[list[int]]:
    """The linking matrix of satellite_cobordism_presentation(p)."""
    return [[0, 0, -1], [0, 0, p], [-1, p, 0]]


@dataclass(frozen=True)
class Presentation:
    """Block sum of cobordism blocks (by p) and torsion blocks [d], changed
    by the unimodular basis change Q: matrix Q L Q^T, classes Q v."""

    cob_ps: tuple
    torsion: tuple
    q: tuple

    def blocks(self):
        return [cobordism_block(p) for p in self.cob_ps] + [[[d]] for d in self.torsion]

    @cached_property
    def matrix(self) -> list[list[int]]:
        q = [list(r) for r in self.q]
        return matmul(matmul(q, block_sum(self.blocks())), transpose(q))

    @cached_property
    def classes(self) -> dict[str, tuple[int, ...]]:
        n = len(self.q)
        out = {}
        for i in range(len(self.cob_ps)):
            for label, offset in (("mu_K", 0), ("mu_Ptilde", 1)):
                e = [0] * n
                e[3 * i + offset] = 1
                out[f"{label}_{i}"] = tuple(
                    sum(self.q[r][c] * e[c] for c in range(n)) for r in range(n)
                )
        return out


def random_presentation(rng, size_hint: int) -> Presentation:
    cob = max(1, size_hint // 4)
    cob_ps = tuple(rng.randint(2, 7) for _ in range(cob))
    torsion = tuple(rng.choice((2, 3, 4, 6, 9, 12)) for _ in range(max(0, size_hint - 3 * cob)))
    n = 3 * cob + len(torsion)
    return Presentation(cob_ps, torsion, unimodular(rng, n, n))
