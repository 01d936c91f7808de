"""Legendrian front diagrams and the slice-genus bounds they certify.

A front is encoded as an ordered list of events read left to right, each
acting on the current stack of strands (position 0 on top):

    ("L", i)  left cusp inserting two strands at positions i, i+1
    ("R", i)  right cusp merging the strands at positions i, i+1
    ("X", i)  crossing swapping the strands at positions i, i+1

The catalog stores each front as a text file of these events, which
`front_from_text` reads; the library writes no front file.

A closed front starts and ends with zero strands.  A front with
``seam_strands = n > 0`` lives in an annulus: it starts and ends with n
strands, and position j on the right edge is glued back to position j on
the left edge.  Annular fronts model patterns in a solid torus.

A segment is an arc of the front from a cusp or the seam to the next
cusp or the seam: it keeps one horizontal direction, and a crossing does
not cut it.  Its direction is a sign, s = +1 east (rightward) and -1
west, found by walking each closed curve once from segment 0, whose
direction the front marks.  Over/under data at crossings is not
recorded: the crossing sign, the cusp up/down classification, and hence
tb and rot depend only on the signs of the strands involved:

  * a crossing is positive exactly when its two strands point in the
    same horizontal direction;
  * a left cusp counts as downward when its upper branch points west,
    a right cusp as downward when its upper branch points east.

From these, tb = writhe - (#cusps)/2 and rot = (#downward left cusps)
- (#upward right cusps).  A cable (`cable_front`, `satellite_front`)
turns a crossing into n^2 crossings, a run in which a bundle of strands U
passes a bundle L; the sweep takes such a run as one move.  Each pair
(u, l) crosses once, so the run adds (sum of s over U) * (sum of s over L)
to the writhe.  The slice-Bennequin inequality and its
refinements through tau and s turn (tb, rot) of a front into lower
bounds for the smooth four-genus; `satellite_genus_pipeline` chains
stabilization, the satellite formulas of Ng, and those bounds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain

from .cabling import HypothesisNotMet, KnotProfile
from .laurent import Record, is_int

__all__ = [
    "FrontDiagram", "FrontError", "GenusBounds", "LegendrianInvariants",
    "MultiComponent", "NonClosed", "PatternData", "SatelliteGenusReport",
    "cable_front", "front_from_text", "genus_bounds", "satellite_front",
    "satellite_genus_pipeline", "satellite_invariants", "stabilize",
]

EAST = "E"
WEST = "W"

LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"
# a run of at most 4 crossings sweeps faster as events than as one bundle
_PLAIN_RUN = 4

SATELLITE_FORMULA_CITATION = (
    "Ng, 'On arc index and maximal Thurston-Bennequin number', Remark 2.4"
)
SLICE_BENNEQUIN_TAU_CITATION = (
    "Plamenevskaya, 'Bounds for the Thurston-Bennequin number from Floer homology'"
)
SLICE_BENNEQUIN_S_CITATION = (
    "Plamenevskaya, 'Transverse knots and Khovanov homology'; "
    "Shumakovitch, 'Rasmussen invariant, Slice-Bennequin inequality, and sliceness of knots'"
)


class FrontError(ValueError):
    """Malformed front encoding: bad event, bad position, bad marker."""


class NonClosed(FrontError):
    """Front does not close up (strand count does not return to the seam)."""


class MultiComponent(FrontError):
    """Front traces more than one closed curve."""


class LegendrianInvariants(Record):
    """Classical invariants of an oriented front.

    Formula-level results (stabilize, satellite_invariants) populate only
    tb and rot; diagram-level counts stay None there.
    """

    tb: int
    rot: int
    writhe: int | None = None
    cusps: int | None = None
    down_left_cusps: int | None = None
    up_right_cusps: int | None = None


class _Bundle(tuple):
    """The kind (a, b) of a bundle move, told by its type (see _sweep)."""


class FrontDiagram:
    """An oriented front, validated and analyzed at construction.

    Segments, the arcs between cusps or the seam, are numbered in sweep
    order: seam strand j is segment j, and the i-th left cusp starts
    seam + 2i (upper) and seam + 2i + 1, so no left cusp is recorded.  A
    crossing only swaps two segments on the stack, a bundle move of a
    cable (see _sweep) two adjacent runs of them.  What a front keeps is
    read-only, tuples and no list: `cable_front` and `satellite_front`
    hand one kept front to every caller that asks for it (see _cabled).

    Parameters
    ----------
    events : iterable of (kind, position) pairs
    seam_strands : number of strands crossing the annulus seam (0 = closed
        front in the plane)
    orient : direction of segment 0, "E" or "W"; segment 0 is the seam
        strand at position 0, or for closed fronts the upper branch of the
        first left cusp
    """

    _invariants = None  # counted by the first invariants() call, then kept on the front

    def __init__(self, events, seam_strands=0, orient=EAST, *, _moves=None):
        if not is_int(seam_strands) or seam_strands < 0:
            raise FrontError(f"seam_strands must be a nonnegative int, got {seam_strands!r}")
        if orient not in (EAST, WEST):
            raise FrontError(f"orient must be {EAST!r} or {WEST!r}, got {orient!r}")
        # cable_front and satellite_front pass a fresh tuple and its moves
        self.events = tuple(map(tuple, events)) if _moves is None else events
        self.seam_strands = seam_strands
        self.orient = orient
        try:
            self._sweep(_moves or self.events)
        except FrontError:  # the events' sweep raises it again, naming the event
            if not _moves:
                raise
            self._sweep(self.events)
        if self.is_closed:
            self._orient_components()

    def _sweep(self, moves):
        """Run the left-to-right simulation, recording segments and features.

        A move is an event or a bundle move (_Bundle((a, b)), pos), where
        the a strands at pos cross the b strands below them, each pair
        once, recorded as (upper segments, lower segments).

        No shortcut changes a result: a position of type exactly int is
        never a bool, so it skips is_int; crossings, most events of a
        front, are tested first and swap two entries by two stores; and a
        missing strand at a crossing or right cusp is the IndexError of
        its read, exact because negative positions were rejected.  After a
        bundle move's error, __init__ sweeps the events for theirs."""
        positions = list(range(self.seam_strands))
        next_id = self.seam_strands
        right_cusps = []  # (upper_seg, lower_seg)
        crossings = []    # (upper_seg, lower_seg)
        bundles = []      # (upper_segs, lower_segs)
        try:
            for n, (kind, pos) in enumerate(moves):
                if type(pos) is not int and not is_int(pos):
                    raise FrontError("position must be an integer")
                if pos < 0:
                    raise FrontError("negative position")
                if kind == CROSSING:
                    upper, lower = positions[pos], positions[pos + 1]
                    positions[pos], positions[pos + 1] = lower, upper
                    crossings.append((upper, lower))
                elif kind == LEFT_CUSP:
                    if pos > len(positions):
                        raise FrontError(f"position beyond {len(positions)} strands")
                    positions[pos:pos] = [next_id, next_id + 1]
                    next_id += 2
                elif kind == RIGHT_CUSP:
                    upper, lower = positions[pos], positions[pos + 1]
                    del positions[pos:pos + 2]
                    right_cusps.append((upper, lower))
                elif type(kind) is _Bundle:
                    a, b = kind
                    upper, lower = positions[pos:pos + a], positions[pos + a:pos + a + b]
                    if len(lower) < b:
                        raise FrontError(f"bundle beyond {len(positions)} strands")
                    positions[pos:pos + a + b] = lower + upper
                    bundles.append((tuple(upper), tuple(lower)))
                else:
                    raise FrontError("unknown event kind")
        except (FrontError, IndexError) as exc:
            if isinstance(exc, IndexError):  # a read past the last strand
                exc = f"needs two strands at {pos}, have {len(positions)}"
            raise FrontError(f"event {n} ({kind} {pos}): {exc}") from None
        self._segment_count = next_id
        self._right_cusps = tuple(right_cusps)
        self._crossings = tuple(crossings)
        self._bundles = tuple(bundles)
        self._right_edge = tuple(positions)
        self.is_closed = len(positions) == self.seam_strands

    def _orient_components(self):
        """Walk each closed curve once, signing its segments: an east one
        leaves by its right end, a west one by its left end.  A right cusp,
        or the i-th left cusp (segments seam + 2i and seam + 2i + 1), names
        the next segment and flips the sign; the seam glues right-edge
        position j to seam strand j and keeps it.  Segment 0 starts with
        the sign of orient, each further curve its lowest segment with +1."""
        seam, edge, count = self.seam_strands, self._right_edge, self._segment_count
        across = [None] * count  # the other branch of a segment's right cusp
        for upper, lower in self._right_cusps:
            across[upper], across[lower] = lower, upper
        glued = dict(zip(edge, range(seam)))  # right-edge segment -> seam strand
        signs, components = [0] * count, 0
        for start in range(count):
            if signs[start]:
                continue
            components += 1
            seg, s = start, -1 if start == 0 and self.orient == WEST else 1
            while True:
                signs[seg] = s
                if s > 0:
                    nxt, t = (glued[seg], s) if seg in glued else (across[seg], -s)
                elif seg < seam:
                    nxt, t = edge[seg], s
                else:
                    nxt, t = seam + ((seg - seam) ^ 1), -s
                if signs[nxt]:
                    break
                seg, s = nxt, t
            if signs[nxt] != t:
                # a closed curve's walk comes back with the sign it left
                raise RuntimeError(f"segments {seg} and {nxt} get opposite orientations")
        self._signs = tuple(signs)
        self._components = components

    @property
    def component_count(self):
        self._require_closed()
        return self._components

    def _require_closed(self):
        if not self.is_closed:
            raise NonClosed(
                f"front ends with {len(self._right_edge)} strands, "
                f"seam has {self.seam_strands}"
            )

    def winding(self):
        """Net signed count of seam strands (eastward minus westward)."""
        self._require_closed()
        return sum(self._signs[:self.seam_strands])

    def invariants(self):
        """Compute (tb, rot) and the raw counts behind them.

        With s = +1 east and -1 west, a crossing of u and l adds s_u * s_l
        (positive exactly when both point the same way).  Each pair of a
        bundle move's U x L crosses once: it adds (sum_U s) * (sum_L s).

        Raises NonClosed for a front that does not close up and
        MultiComponent when it traces more than one curve, on every call;
        the invariants are counted at the first call and kept on the front.
        """
        self._require_closed()
        if self._components != 1:
            raise MultiComponent(
                f"front has {self._components} components, expected 1"
            )
        if self._invariants is not None:
            return self._invariants
        s, seam = self._signs, self.seam_strands
        writhe = sum([s[u] * s[l] for u, l in self._crossings]) + sum([
            sum(map(s.__getitem__, U)) * sum(map(s.__getitem__, L)) for U, L in self._bundles])
        down_left = s[seam::2].count(-1)  # the left cusps' upper branches
        up_right = [s[upper] for upper, _ in self._right_cusps].count(-1)
        cusps = (len(s) - seam) // 2 + len(self._right_cusps)
        if cusps % 2:
            raise ArithmeticError(f"a closed front has {cusps} cusps, an odd count")
        tb = writhe - cusps // 2
        rot = down_left - up_right
        if self.seam_strands == 0 and (tb + abs(rot)) % 2 != 1:
            raise ArithmeticError(f"tb + |rot| = {tb + abs(rot)} must be odd for a knot front")
        self._invariants = LegendrianInvariants(tb, rot, writhe, cusps, down_left, up_right)
        return self._invariants

    def __repr__(self):
        closure = "closed" if self.is_closed else "open"
        return (
            f"FrontDiagram({len(self.events)} events, "
            f"seam={self.seam_strands}, {closure})"
        )


def front_from_text(text):
    """Parse the front file format of the catalog (the library writes none).

    One record per line: `S n` (seam strand count), `O E|W` (direction of
    segment 0), and events `L i`, `R i`, `X i`.  `#` starts a comment.
    """
    header = {}   # the S and O records
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FrontError(f"line {lineno}: expected 'KIND VALUE', got {raw!r}")
        kind, value = parts
        if kind in header:
            raise FrontError(f"line {lineno}: second {kind} record")
        if kind == "S":
            if events:
                raise FrontError(f"line {lineno}: S must precede events")
            header[kind] = _parse_int(value, lineno)
        elif kind == "O":
            if value not in (EAST, WEST):
                raise FrontError(f"line {lineno}: O takes E or W, got {value!r}")
            header[kind] = value
        elif kind in (LEFT_CUSP, RIGHT_CUSP, CROSSING):
            events.append((kind, _parse_int(value, lineno)))
        else:
            raise FrontError(f"line {lineno}: unknown record {kind!r}")
    return FrontDiagram(
        events, seam_strands=header.get("S", 0), orient=header.get("O", EAST)
    )


def _parse_int(value, lineno):
    try:
        return int(value)
    except ValueError:
        raise FrontError(f"line {lineno}: expected an integer, got {value!r}") from None


def _cable_templates(n):
    """Each kind's block at position 0 of the n-copy cable, as kind ->
    (events, moves).  The left cusps give [u0 l0 u1 l1 ...]; in run
    i = 1 .. n - 1, l0 .. l_{i-1} cross u_i, (i, i, 1) as (pos, a, b),
    leaving [u0 .. u_{n-1} l0 .. l_{n-1}]; a right cusp undoes that by
    runs (i, 1, i), i = n - 1 .. 1, and a crossing is the one run
    (0, n, n).  A run is its a * b crossings, the lowest of the a strands
    walked down first, and one bundle move when a * b > _PLAIN_RUN.
    Built once per front that _cabled builds."""
    left, right = [(LEFT_CUSP, 2 * j) for j in range(n)], [(RIGHT_CUSP, 0)] * n
    templates = {}
    for kind, head, runs, tail in (
        (LEFT_CUSP, left, [(i, i, 1) for i in range(1, n)], []),
        (RIGHT_CUSP, [], [(i, 1, i) for i in range(n - 1, 0, -1)], right),
        (CROSSING, [], [(0, n, n)], []),
    ):
        events, moves = head[:], head[:]
        for pos, a, b in runs:
            run = [(CROSSING, pos + k + j) for k in reversed(range(a)) for j in range(b)]
            events += run
            moves += [(_Bundle((a, b)), pos)] if a * b > _PLAIN_RUN else run
        templates[kind] = tuple(events + tail), tuple(moves + tail)
    return templates


def _cable_blocks(events, n):
    """The lists of the events' blocks in the n-copy cable and of their
    moves.  An event's blocks are its kind's templates shifted by n * pos,
    built once per distinct event."""
    templates, made, blocks, moves = _cable_templates(n), {}, [], []
    for event in events:
        pair = made.get(event)
        if pair is None:
            shift, (plain, runs) = n * event[1], templates[event[0]]
            pair = made[event] = [(k, q + shift) for k, q in plain], [(k, q + shift) for k, q in runs]
        blocks.append(pair[0])
        moves.append(pair[1])
    return blocks, moves


def cable_front(front, n):
    """Replace every strand by n parallel copies (copy 0 on top).

    The cable of a closed front is an n-component link diagram; it becomes
    a knot only after a pattern tangle is spliced in (satellite_front).
    The sweep takes each block's runs a bundle at a time (_cable_blocks).
    Equal arguments get the one front built for them (_cabled).
    """
    if not is_int(n) or n < 1:
        raise ValueError(f"need an integer n >= 1, got {n!r}")
    return _cabled(front.events, front.seam_strands, front.orient, n, None, 0, 0)


def satellite_front(companion, pattern, splice_after=1, base=0):
    """Splice a pattern tangle into the n-copy cable of a closed front.

    The companion's events are cabled with n = pattern.seam_strands; the
    pattern's events, shifted down by `base`, are inserted after the first
    `splice_after` cabled blocks.  `base` selects which companion arc the
    pattern rides on (copies of that arc occupy positions base..base+n-1
    at the splice point), so it must be a multiple of n: any other base
    would straddle the copies of two arcs and build another knot.  The
    sweep validates the choice of arc.  The result's orient is the
    companion's, flipped when the pattern's is W: a W pattern reverses
    the satellite of the E one, so that tb and rot are those of Ng's
    formula (satellite_invariants) for either orient.  Equal arguments
    get the one front built for them (_cabled).
    """
    if companion.seam_strands != 0:
        raise FrontError("companion must be a closed front")
    n = pattern.seam_strands
    if n < 1:
        raise FrontError("pattern must have seam_strands >= 1")
    if not is_int(splice_after) or not 0 <= splice_after <= len(companion.events):
        raise FrontError(f"splice_after out of range: {splice_after!r}")
    if not is_int(base) or base < 0 or base % n:
        raise FrontError(f"base must be a nonnegative multiple of {n}, got {base!r}")
    orient = EAST if (companion.orient == EAST) == (pattern.orient == EAST) else WEST
    return _cabled(companion.events, 0, orient, n, pattern.events, splice_after, base)


@functools.lru_cache(maxsize=64)
def _cabled(events, seam_strands, orient, n, pattern, splice_after, base):
    """The n-copy cable of a front's events, seam strands and orient, with
    the pattern's events (None for a plain cable), shifted down by base,
    spliced in after the first splice_after blocks; swept by the moves
    (_cable_blocks).  A cable is a satellite with no pattern, so both
    routes share this one cache, keyed by value: equal fronts built apart
    hit it.  cable_front and satellite_front check every argument before
    the lookup, and a build that raises is not kept, so a bad input
    raises on every call.  Kept for the last 64 keys: an entry grows as
    events * n^2 (about 0.3 MB for the 68 events of satellite-P-of-trefoil
    at n = 14, its invariants read), and a diagram-homology run asks 36
    keys in shuffled cycles (no command builds a cable: the CLI reads
    satellites through Ng's formulas).  256 keys of large user fronts
    could hold tens of MB; with fewer than 36 the workload misses more,
    on 71% of its calls at 32 keys and on every call at 24."""
    blocks, moves = _cable_blocks(events, n)
    if pattern is not None:
        spliced = [(kind, pos + base) for kind, pos in pattern]
        blocks.insert(splice_after, spliced)
        moves.insert(splice_after, spliced)
    return FrontDiagram(tuple(chain.from_iterable(blocks)), seam_strands * n, orient,
                        _moves=chain.from_iterable(moves))


class PatternData(Record):
    """Invariants of a pattern in the solid torus.

    tilde_class records the declared type of the associated knot P-tilde
    (the pattern viewed in the surgered solid torus): one of "unknot",
    "Z-slice", "Z[1/p]-slice", "other".  Declared values carry citations.
    """

    name: str
    winding: int
    tb: int
    rot: int
    tilde_class: str | None = None
    tilde_citation: str | None = None

    _TILDE_CLASSES = ("unknot", "Z-slice", "Z[1/p]-slice", "other")

    def __post_init__(self):
        if self.tilde_class is not None:
            if self.tilde_class not in self._TILDE_CLASSES:
                raise ValueError(
                    f"tilde_class must be one of {self._TILDE_CLASSES}, "
                    f"got {self.tilde_class!r}"
                )
            if not (self.tilde_citation or "").strip():
                raise ValueError("a declared tilde_class requires a citation")

    @classmethod
    def from_front(cls, name, front, tilde_class=None, tilde_citation=None):
        """Read winding number and (tb, rot) off an annular front."""
        if front.seam_strands < 1:
            raise FrontError("pattern fronts need seam_strands >= 1")
        inv = front.invariants()
        return cls(
            name,
            winding=front.winding(),
            tb=inv.tb,
            rot=inv.rot,
            tilde_class=tilde_class,
            tilde_citation=tilde_citation,
        )


def stabilize(inv, direction, count=1):
    """Stabilize `count` times: tb drops by count, rot moves by +-count.

    Positive stabilization raises rot.  Diagram-level counts of the input
    are dropped (a stabilized front has two more cusps per step).
    """
    if direction not in ("positive", "negative"):
        raise ValueError(f"direction must be 'positive' or 'negative', got {direction!r}")
    if not is_int(count) or count < 0:
        raise ValueError(f"count must be a nonnegative int, got {count!r}")
    step = 1 if direction == "positive" else -1
    return LegendrianInvariants(inv.tb - count, inv.rot + step * count)


def satellite_invariants(pattern, companion):
    """tb and rot of the Legendrian satellite, by the formulas of Ng.

    tb(P(K)) = w^2 tb(K) + tb(P), rot(P(K)) = w rot(K) + rot(P).  The
    companion must already have the framing the satellite is meant to use:
    for the Seifert-framed satellite, stabilize to tb = 0 first.
    """
    w = pattern.winding
    return LegendrianInvariants(
        w * w * companion.tb + pattern.tb,
        w * companion.rot + pattern.rot,
    )


class GenusBounds(Record):
    """Lower bounds from tb + |rot| via slice-Bennequin and refinements."""

    g4_lower: int
    tau_lower: Fraction
    s_lower: int


def genus_bounds(inv):
    """Slice-Bennequin bounds: tb + |rot| <= 2 g4 - 1, <= 2 tau - 1, <= s - 1."""
    k = inv.tb + abs(inv.rot)
    return GenusBounds(
        g4_lower=math.ceil(Fraction(k + 1, 2)),
        tau_lower=Fraction(k + 1, 2),
        s_lower=k + 1,
    )


class SatelliteGenusReport(Record):
    """Outcome of the stabilize-satellite-bound pipeline."""

    companion: str
    genus: int
    front: str
    realization: LegendrianInvariants
    stabilized: LegendrianInvariants
    satellite: LegendrianInvariants
    bounds: GenusBounds
    conclusions: tuple[str, ...]


def satellite_genus_pipeline(profile, fronts, pattern):
    """Bound the smooth invariants of a satellite from below.

    Given a knot with declared genus g and ``fronts``, a mapping from
    names to the knot's own fronts in catalog order, take as the
    realization the first one with tb = 2g - 1 and rot = 0, stabilize it
    positively to (tb, rot) = (0, 2g - 1), form the satellite, and
    convert tb + |rot| of the result into lower bounds for g4, tau, and
    s.  Annular fronts are skipped: an entry that also declares a pattern
    holds the pattern's front.  The report compares the bounds against
    the companion's declared values and, for winding-one patterns whose
    P-tilde is unknotted, records that the zero surgeries on companion
    and satellite are Z-homology cobordant rel meridians.

    Raises HypothesisNotMet when the genus is missing or no front
    realizes tb = 2g - 1, rot = 0.
    """
    if not isinstance(profile, KnotProfile):
        raise TypeError(f"expected a KnotProfile, got {type(profile).__name__}")
    if profile.declared_genus is None:
        raise HypothesisNotMet(f"{profile.name}: no declared genus")
    g = profile.declared_genus.value
    for front, diagram in fronts.items():
        if not diagram.seam_strands:
            realization = diagram.invariants()
            if (realization.tb, realization.rot) == (2 * g - 1, 0):
                break
    else:
        raise HypothesisNotMet(
            f"{profile.name}: no stored front realizes tb = 2g - 1 = "
            f"{2 * g - 1} with rot = 0"
        )
    stabilized = stabilize(realization, "positive", 2 * g - 1)
    sat = satellite_invariants(pattern, stabilized)
    bounds = genus_bounds(sat)
    conclusions = [
        f"satellite of {profile.name} with pattern {pattern.name}: "
        f"tb = {sat.tb}, rot = {sat.rot} ({SATELLITE_FORMULA_CITATION})",
        f"g4(satellite) >= {bounds.g4_lower} (slice-Bennequin)",
        f"tau(satellite) >= {bounds.tau_lower} ({SLICE_BENNEQUIN_TAU_CITATION})",
        f"s(satellite) >= {bounds.s_lower} ({SLICE_BENNEQUIN_S_CITATION})",
    ]
    if profile.declared_slice_genus is not None:
        upper = profile.declared_slice_genus.upper
        if upper is not None and bounds.g4_lower > upper:
            conclusions.append(
                f"g4 strictly increases: {bounds.g4_lower} > {upper} = "
                f"g4({profile.name}) ({profile.declared_slice_genus.citation})"
            )
    for name, lower, declared in (
        ("tau", bounds.tau_lower, profile.declared_tau),
        ("s", bounds.s_lower, profile.declared_s),
    ):
        if declared is not None and lower > declared.value:
            conclusions.append(
                f"{name} strictly increases: {name}(satellite) >= {lower} > "
                f"{declared.value} = {name}({profile.name}) ({declared.citation})"
            )
    if pattern.winding == 1 and pattern.tilde_class == "unknot":
        conclusions.append(
            "winding one and unknotted P-tilde: the zero surgeries on the "
            "companion and the satellite are Z-homology cobordant rel "
            f"meridians ({pattern.tilde_citation})"
        )
        if profile.topologically_slice is not None and profile.topologically_slice.value:
            conclusions.append(
                "both knots are topologically slice "
                f"({profile.topologically_slice.citation})"
            )
    return SatelliteGenusReport(
        companion=profile.name,
        genus=g,
        front=front,
        realization=realization,
        stabilized=stabilized,
        satellite=sat,
        bounds=bounds,
        conclusions=tuple(conclusions),
    )
