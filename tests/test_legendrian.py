"""Front-diagram invariants, satellites, and the genus-bound pipeline."""

from fractions import Fraction
from importlib import resources
from pathlib import Path

import collections
import hashlib
import json
import random

import pytest
from _oracles import (
    front_alexander,
    front_to_text,
    reference_cable_events,
    reference_front_sweep,
    reference_satellite_events,
)

from concordance.cabling import Cited, CitedBounds, KnotProfile
from concordance.laurent import LaurentPoly
from concordance.legendrian import (
    FrontDiagram,
    FrontError,
    GenusBounds,
    HypothesisNotMet,
    LegendrianInvariants,
    MultiComponent,
    NonClosed,
    PatternData,
    cable_front,
    front_from_text,
    genus_bounds,
    satellite_front,
    satellite_genus_pipeline,
    satellite_invariants,
    stabilize,
)
from concordance.seifert import SeifertMatrix


class Int(int):
    """An int subclass: an integer input, so accepted like a plain int."""


def _load_front(name):
    text = (resources.files("concordance") / "_data" / name).read_text()
    return front_from_text(text)


TREFOIL_FRONT = _load_front("legendrian-RH-trefoil.front")
TREFOIL_MAXTB = _load_front("legendrian-RH-trefoil-maxtb.front")
PATTERN_FRONT = _load_front("paper-pattern-P.front")
SATELLITE_FRONT = _load_front("satellite-P-of-trefoil.front")
WHITEHEAD_FRONT = _load_front("whitehead-double-RH-trefoil.front")
# the clasp of the Whitehead double: winding 0, tb 1, rot 0
CLASP = front_from_text("S 2\nO E\nL 1\nX 0\nX 2\nR 1\n")
# the pattern bundled before paper-pattern-P: its closure is a trefoil
TREFOIL_CLOSURE_PATTERN = front_from_text(
    (Path(__file__).parent / "data" / "trefoil-closure-pattern.front").read_text()
)

PATTERN = PatternData.from_front(
    "paper-pattern-P",
    PATTERN_FRONT,
    tilde_class="unknot",
    tilde_citation=(
        "closed up in the plane, the front is a three-crossing diagram with "
        "Alexander polynomial 1; a diagram with at most three crossings is "
        "the unknot or a trefoil, and a trefoil has polynomial t - 1 + t^-1"
    ),
)


class TestFrontInvariants:
    def test_pattern_front_counts(self):
        inv = PATTERN_FRONT.invariants()
        assert inv == LegendrianInvariants(
            tb=2, rot=0, writhe=3, cusps=2, down_left_cusps=0, up_right_cusps=0
        )
        assert PATTERN_FRONT.winding() == 1

    def test_trefoil_front_counts(self):
        inv = TREFOIL_FRONT.invariants()
        assert inv == LegendrianInvariants(
            tb=0, rot=1, writhe=3, cusps=6, down_left_cusps=2, up_right_cusps=1
        )

    def test_maxtb_trefoil_counts(self):
        inv = TREFOIL_MAXTB.invariants()
        assert (inv.tb, inv.rot) == (1, 0)
        assert (inv.writhe, inv.cusps) == (3, 4)

    def test_satellite_front_counts(self):
        inv = SATELLITE_FRONT.invariants()
        assert inv == LegendrianInvariants(
            tb=2, rot=1, writhe=12, cusps=20, down_left_cusps=5, up_right_cusps=4
        )

    def test_parity_on_closed_fronts(self):
        for front in (TREFOIL_FRONT, TREFOIL_MAXTB, SATELLITE_FRONT):
            inv = front.invariants()
            assert (inv.tb + abs(inv.rot)) % 2 == 1

    def test_cyclic_rotation_of_annular_front(self):
        # rotating the event list across the seam preserves the diagram
        # whenever the cut point carries the full seam strand count
        events = list(TREFOIL_CLOSURE_PATTERN.events)
        base = TREFOIL_CLOSURE_PATTERN.invariants()
        count = TREFOIL_CLOSURE_PATTERN.seam_strands
        valid_shifts = []
        running = count
        for shift, (kind, _) in enumerate(events, start=1):
            running += {"L": 2, "R": -2, "X": 0}[kind]
            if shift < len(events) and running == count:
                valid_shifts.append(shift)
        assert valid_shifts == [1, 2, 4]
        for shift in valid_shifts:
            rotated = FrontDiagram(
                events[shift:] + events[:shift], seam_strands=count
            )
            inv = rotated.invariants()
            assert (inv.tb, inv.rot) == (base.tb, base.rot)
            assert (inv.writhe, inv.cusps) == (base.writhe, base.cusps)
            assert abs(rotated.winding()) == 1

    def test_unknot_front(self):
        inv = FrontDiagram([("L", 0), ("R", 0)]).invariants()
        assert (inv.tb, inv.rot, inv.writhe, inv.cusps) == (-1, 0, 0, 2)

    def test_non_closed(self):
        front = FrontDiagram([("L", 0)])
        assert not front.is_closed
        with pytest.raises(NonClosed):
            front.invariants()

    def test_multi_component(self):
        two_circles = FrontDiagram([("L", 0), ("R", 0), ("L", 0), ("R", 0)])
        with pytest.raises(MultiComponent):
            two_circles.invariants()

    def test_bad_events(self):
        with pytest.raises(FrontError, match="needs two strands"):
            FrontDiagram([("X", 0)])
        with pytest.raises(FrontError, match="beyond"):
            FrontDiagram([("L", 1)])
        with pytest.raises(FrontError, match="negative"):
            FrontDiagram([("L", -1)])
        with pytest.raises(FrontError, match="unknown event"):
            FrontDiagram([("Q", 0)])
        with pytest.raises(FrontError, match="orient"):
            FrontDiagram([], orient="N")
        with pytest.raises(FrontError, match="seam_strands"):
            FrontDiagram([], seam_strands=-1)

    def test_a_bad_front_is_swept_once(self, monkeypatch):
        # only a sweep of bundle moves is repeated on the events, to name
        # the failing event; a user's events are swept once
        calls = []
        sweep = FrontDiagram._sweep

        def counted(self, moves):
            calls.append(moves)
            return sweep(self, moves)

        monkeypatch.setattr(FrontDiagram, "_sweep", counted)
        for events, message in [([("X", 0)], "needs two strands"), ([("L", 1)], "beyond")]:
            calls.clear()
            with pytest.raises(FrontError, match=message):
                FrontDiagram(events)
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "events, seam, message",
        [
            ([("L", 0.9), ("R", 0)], 0, r"event 0 \(L 0.9\): position must be an integer"),
            ([("L", "0"), ("R", 0)], 0, r"event 0 \(L 0\): position must be an integer"),
            ([("L", 0), ("R", False)], 0, r"event 1 \(R False\): position must be an integer"),
            ([("L", 0), ("R", 0)], False, "seam_strands must be a nonnegative int, got False"),
            # an int subclass is an integer: accepted, with the plain-int result
            ([(kind, Int(pos)) for kind, pos in TREFOIL_FRONT.events], 0, None),
            ([(kind, Int(pos)) for kind, pos in PATTERN_FRONT.events], Int(3), None),
        ],
        ids=["float-position", "str-position", "bool-position", "bool-seam",
             "int-subclass-position", "int-subclass-seam"],
    )
    def test_inputs_are_checked_not_truncated(self, events, seam, message):
        if message is None:
            front = FrontDiagram(events, seam_strands=seam)
            plain = FrontDiagram([(kind, int(pos)) for kind, pos in events], seam_strands=int(seam))
            assert front.events == plain.events
            assert front.invariants() == plain.invariants()
            assert front.winding() == plain.winding()
            return
        with pytest.raises(FrontError, match=message):
            FrontDiagram(events, seam_strands=seam)


class TestFrontFiles:
    @pytest.mark.parametrize(
        "front", [TREFOIL_FRONT, TREFOIL_MAXTB, PATTERN_FRONT, SATELLITE_FRONT, WHITEHEAD_FRONT]
    )
    def test_round_trip(self, front):
        again = front_from_text(front_to_text(front))
        assert again.events == front.events
        assert again.seam_strands == front.seam_strands
        assert again.orient == front.orient

    def test_comments_and_blank_lines(self):
        front = front_from_text("# note\n\nO W\nL 0  # inline\nR 0\n")
        assert front.orient == "W"
        assert front.events == (("L", 0), ("R", 0))

    def test_parse_errors(self):
        with pytest.raises(FrontError, match="line 1"):
            front_from_text("L\n")
        with pytest.raises(FrontError, match="expected an integer"):
            front_from_text("L zero\n")
        with pytest.raises(FrontError, match="S must precede"):
            front_from_text("L 0\nS 2\n")
        with pytest.raises(FrontError, match="O takes E or W"):
            front_from_text("O Q\n")
        with pytest.raises(FrontError, match="unknown record"):
            front_from_text("Z 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("S 2\nS 3\n", "line 2: second S record"),
            ("O E\nL 0\nO W\nR 0\n", "line 3: second O record"),
        ],
        ids=["S", "O"],
    )
    def test_duplicate_records(self, text, message):
        with pytest.raises(FrontError, match=message):
            front_from_text(text)


class TestCableAndSatelliteFronts:
    def test_cable_of_closed_front_is_a_link(self):
        for n in (2, 3):
            link = cable_front(TREFOIL_FRONT, n)
            assert link.component_count == n
            with pytest.raises(MultiComponent):
                link.invariants()

    def test_cable_identity(self):
        for front in (TREFOIL_FRONT, PATTERN_FRONT):
            same = cable_front(front, 1)
            assert (same.events, same.seam_strands, same.orient) == (front.events, front.seam_strands, front.orient)
            assert same.invariants() == front.invariants()
        with pytest.raises(ValueError):
            cable_front(TREFOIL_FRONT, 0)

    def test_cable_multiplies_winding(self):
        doubled = cable_front(PATTERN_FRONT, 2)
        assert doubled.seam_strands == 6
        assert doubled.winding() == 2

    def test_satellite_reproduces_frozen_front(self):
        built = satellite_front(TREFOIL_FRONT, PATTERN_FRONT, splice_after=1, base=3)
        assert built.events == SATELLITE_FRONT.events
        assert built.orient == SATELLITE_FRONT.orient

    def test_whitehead_double_reproduces_frozen_front(self):
        built = satellite_front(TREFOIL_FRONT, CLASP, splice_after=1, base=2)
        assert built.events == WHITEHEAD_FRONT.events
        assert built.orient == WHITEHEAD_FRONT.orient
        assert WHITEHEAD_FRONT.invariants() == LegendrianInvariants(1, 0, 8, 14, 3, 3)
        formula = satellite_invariants(
            PatternData.from_front("clasp", CLASP), TREFOIL_FRONT.invariants()
        )
        assert (formula.tb, formula.rot) == (1, 0)

    def test_satellite_diagram_matches_formula(self):
        # diagram-level and formula-level (tb, rot) must agree on the stored satellite
        diagram = SATELLITE_FRONT.invariants()
        formula = satellite_invariants(PATTERN, TREFOIL_FRONT.invariants())
        assert (diagram.tb, diagram.rot) == (formula.tb, formula.rot) == (2, 1)

    def test_two_cable_diagram_matches_formula(self):
        one_crossing = FrontDiagram([("X", 0)], seam_strands=2)
        built = satellite_front(TREFOIL_MAXTB, one_crossing, splice_after=1)
        diagram = built.invariants()
        formula = satellite_invariants(
            PatternData.from_front("two-cable", one_crossing),
            TREFOIL_MAXTB.invariants(),
        )
        assert (diagram.tb, diagram.rot) == (formula.tb, formula.rot) == (5, 0)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_sweep_at_benchmark_sizes(self, n):
        # the cyclic pattern: n parallel strands, one full turn of crossings
        cyclic = FrontDiagram([("X", i) for i in range(n - 1)], seam_strands=n)
        pattern = PatternData.from_front("cyclic", cyclic)
        for companion in (TREFOIL_FRONT, TREFOIL_MAXTB, SATELLITE_FRONT):
            diagram = satellite_front(companion, cyclic).invariants()
            formula = satellite_invariants(pattern, companion.invariants())
            assert (diagram.tb, diagram.rot) == (formula.tb, formula.rot)
            assert genus_bounds(diagram) == genus_bounds(formula)
        # each cusp becomes n cusps and n(n-1)/2 crossings, each crossing n^2
        for front in (TREFOIL_FRONT, TREFOIL_MAXTB, PATTERN_FRONT, SATELLITE_FRONT):
            cable = cable_front(front, n)
            kinds = [kind for kind, _ in front.events]
            cable_kinds = [kind for kind, _ in cable.events]
            cusps = kinds.count("L") + kinds.count("R")
            assert cable_kinds.count("L") == n * kinds.count("L")
            assert cable_kinds.count("R") == n * kinds.count("R")
            assert cable_kinds.count("X") == (
                cusps * n * (n - 1) // 2 + kinds.count("X") * n * n
            )
            assert cable.component_count == n

    @pytest.mark.parametrize("base", [1, 2, 4, -3, 1.5, True])
    def test_satellite_base_must_not_straddle_two_arcs(self, base):
        # base 1 built a front with rot 3 and base 2 one with rot -1, where
        # Ng's formula gives rot 1 for the pattern on either arc
        with pytest.raises(FrontError, match="base must be a nonnegative multiple of 3"):
            satellite_front(TREFOIL_FRONT, PATTERN_FRONT, splice_after=1, base=base)

    def test_satellite_on_the_first_arc_matches_formula(self):
        # base 3 is the stored SATELLITE_FRONT, checked above
        built = satellite_front(TREFOIL_FRONT, PATTERN_FRONT, splice_after=1, base=0)
        diagram = built.invariants()
        formula = satellite_invariants(PATTERN, TREFOIL_FRONT.invariants())
        assert (diagram.tb, diagram.rot) == (formula.tb, formula.rot) == (2, 1)

    def test_satellite_validation(self):
        with pytest.raises(FrontError, match="closed front"):
            satellite_front(PATTERN_FRONT, PATTERN_FRONT)
        with pytest.raises(FrontError, match="seam_strands >= 1"):
            satellite_front(TREFOIL_FRONT, TREFOIL_MAXTB)
        # 1.5 raised TypeError from list.insert, and True was taken as 1
        for splice_after in (99, 1.5, True):
            with pytest.raises(FrontError, match="splice_after"):
                satellite_front(TREFOIL_FRONT, PATTERN_FRONT, splice_after=splice_after)


def _twist(n):
    """The twist pattern on n strands: X 0 .. X n-2, one full turn."""
    return FrontDiagram([("X", i) for i in range(n - 1)], seam_strands=n)


def _random_pattern(rng, n, length):
    """Events of a random annular front on n seam strands: crossings and
    cusps at random positions, then right cusps until n strands remain
    (or not, one time in eight)."""
    events, strands = [], n
    for _ in range(length):
        kind = rng.choice("XXXLR") if strands >= 2 else "L"
        if kind == "L":
            events.append(("L", rng.randint(0, strands)))
            strands += 2
        elif kind == "R" and strands - 2 >= n:
            events.append(("R", rng.randint(0, strands - 2)))
            strands -= 2
        else:
            events.append(("X", rng.randint(0, strands - 2)))
    if rng.random() >= 1 / 8:
        while strands > n:
            events.append(("R", rng.randint(0, strands - 2)))
            strands -= 2
    return events


def _block_lengths(front, n):
    """Length of each event's block in the n-copy cable (see cable_front)."""
    return [n * n if kind == "X" else n + n * (n - 1) // 2 for kind, _ in front.events]


def _corrupt(rng, events, seam):
    """A copy with one event made invalid, or an int subclass position."""
    events = list(events)
    i = rng.randrange(len(events))
    kind, pos = events[i]
    strands = seam + 2 * sum((k == "L") - (k == "R") for k, _ in events[:i])
    bad = rng.choice([
        1.5, True, False, "0", -1, None, Int(pos), 10 ** 20,
        strands + 1 if kind == "L" else strands - 1,  # the first position out of range
    ])
    events[i] = (kind, bad)
    if rng.random() < 1 / 6:
        events[i] = rng.choice([("Q", pos), ("x", pos), (None, pos), (kind, pos, 0)])
    return events


def _sweep_summary(build, *args):
    """Everything the front build(*args) reports, with each exception as
    (type, message)."""
    try:
        front = build(*args)
    except Exception as exc:  # the exception is the result
        return type(exc), str(exc)
    reads = [front.events, front.is_closed]
    for read in (lambda: front.component_count, front.winding, front.invariants):
        try:
            reads.append(read())
        except Exception as exc:
            reads.append((type(exc), str(exc)))
    return reads


def test_sweep_matches_the_reference_sweep():
    """On 888 seeded fronts (cables and satellites of the bundled fronts
    with random patterns, random annular patterns, and corrupted copies)
    the sweep gives the events, closure, components, winding, tb, rot,
    writhe and cusp counts of the earlier sweep, or its exception and
    message."""
    rng = random.Random(19)
    closed = [TREFOIL_FRONT, TREFOIL_MAXTB, SATELLITE_FRONT]
    annular = [PATTERN_FRONT, TREFOIL_CLOSURE_PATTERN]
    cases = []
    for _ in range(150):
        n = rng.randint(1, 5)
        pattern = _random_pattern(rng, n, rng.randint(0, 12))
        cases.append((pattern, n))
        companion = rng.choice(closed)
        blocks = _block_lengths(companion, n)
        splice = rng.randint(0, len(blocks))
        at = sum(blocks[:splice])
        # a base on one arc, mostly; now and then one that straddles two
        base = n * rng.randint(0, 3) + (rng.random() < 0.1)
        cable = cable_front(companion, n).events
        cases.append((list(cable[:at]) + [(k, p + base) for k, p in pattern] + list(cable[at:]), 0))
        front = rng.choice(closed + annular)
        cases.append((cable_front(front, n).events, front.seam_strands * n))
    for events, seam in list(cases):
        if events:
            cases.append((_corrupt(rng, events, seam), seam))
    assert len(cases) >= 500
    outcomes = collections.Counter()
    for events, seam in cases:
        orient = rng.choice("EW")
        got = _sweep_summary(FrontDiagram, events, seam, orient)
        assert got == _sweep_summary(reference_front_sweep, events, seam, orient), (events, seam)
        last = got if isinstance(got, tuple) else got[-1]  # the exception, or invariants'
        outcomes[last[0].__name__ if isinstance(last, tuple) else "invariants"] += 1
    assert set(outcomes) >= {"invariants", "MultiComponent", "NonClosed", "FrontError", "ValueError"}


def _strands_before(front):
    """The number of strands before each event, and after the last."""
    counts = [front.seam_strands]
    for kind, _ in front.events:
        counts.append(counts[-1] + 2 * (kind == "L") - 2 * (kind == "R"))
    return counts


def _failing_index(summary):
    """The event a FrontError names, or None."""
    if isinstance(summary, tuple) and summary[0] is FrontError:
        return int(summary[1].split()[1])
    return None


def test_cables_and_satellites_match_the_blockwise_route():
    """Cables of the bundled fronts and of random patterns for n = 1..14,
    and their satellites at every splice point and every base that is a
    multiple of n (each arc, and the first position past the last), give
    the events of the earlier route that built every block afresh, and
    the closure, components, winding and invariants of the reference
    sweep of those events, or its exception and message.  The patterns
    are the twist pattern, a random one, and the random one ending on two
    strands fewer than it starts on, which makes a companion block after
    it fail, where the move index is not the event index."""
    rng = random.Random(20)
    closed = [TREFOIL_FRONT, TREFOIL_MAXTB]
    outcomes, failed_after = collections.Counter(), 0

    def compare(got, events, seam, orient):
        want = _sweep_summary(reference_front_sweep, events, seam, orient)
        assert got == want, (n, events)
        last = got if isinstance(got, tuple) else got[-1]  # the exception, or invariants'
        outcomes[last[0].__name__ if isinstance(last, tuple) else "invariants", n >= 3] += 1

    for n in range(1, 15):
        events = _random_pattern(rng, n, rng.randint(0, 8))
        patterns = [_twist(n), FrontDiagram(events, seam_strands=n)]
        if n >= 2:
            patterns.append(FrontDiagram(events + [("R", 0)], seam_strands=n))
        bundled = [SATELLITE_FRONT, WHITEHEAD_FRONT, PATTERN_FRONT, TREFOIL_CLOSURE_PATTERN]
        for front in closed + bundled + patterns:
            compare(_sweep_summary(cable_front, front, n),
                    reference_cable_events(front.events, n), front.seam_strands * n, front.orient)
        for companion in closed + [SATELLITE_FRONT] * (n <= 2):
            for pattern in patterns:
                for splice, strands in enumerate(_strands_before(companion)):
                    for base in range(0, n * strands + 1, n):
                        got = _sweep_summary(satellite_front, companion, pattern, splice, base)
                        compare(got, reference_satellite_events(
                            companion.events, pattern.events, splice, base, n
                        ), 0, companion.orient)
                        # the events up to the end of the pattern
                        upto = reference_satellite_events(
                            companion.events[:splice], pattern.events, splice, base, n)
                        index = _failing_index(got)
                        failed_after += index is not None and index >= len(upto)
    assert sum(outcomes.values()) >= 1000
    # both outcomes occur on fronts with bundle moves (n >= 3)
    assert outcomes["invariants", True] and outcomes["FrontError", True] and failed_after


class TestFrontAlexander:
    """The Wirtinger oracle on the bundled fronts: the pattern's closure
    P(U) is unknotted, so its satellite of the trefoil keeps the trefoil's
    Alexander polynomial, Delta_P(U)(t) * Delta_K(t^w) with w = 1."""

    TREFOIL = LaurentPoly({-1: 1, 0: -1, 1: 1})

    def test_trefoil_fronts(self):
        assert front_alexander(TREFOIL_FRONT) == self.TREFOIL
        assert front_alexander(TREFOIL_MAXTB) == self.TREFOIL

    def test_pattern_closures(self):
        assert front_alexander(PATTERN_FRONT) == LaurentPoly.one()
        assert front_alexander(TREFOIL_CLOSURE_PATTERN) == self.TREFOIL

    def test_satellites(self):
        assert front_alexander(SATELLITE_FRONT) == self.TREFOIL
        old = satellite_front(TREFOIL_FRONT, TREFOIL_CLOSURE_PATTERN, splice_after=1, base=3)
        assert front_alexander(old) == self.TREFOIL * self.TREFOIL


class TestPatternData:
    def test_from_front_requires_seam(self):
        with pytest.raises(FrontError):
            PatternData.from_front("x", TREFOIL_FRONT)

    def test_tilde_class_validation(self):
        with pytest.raises(ValueError, match="tilde_class"):
            PatternData("x", winding=1, tb=0, rot=0, tilde_class="weird",
                        tilde_citation="y")
        with pytest.raises(ValueError, match="citation"):
            PatternData("x", winding=1, tb=0, rot=0, tilde_class="unknot")

    def test_paper_pattern_values(self):
        assert (PATTERN.winding, PATTERN.tb, PATTERN.rot) == (1, 2, 0)
        assert PATTERN.tilde_class == "unknot"


class TestStabilize:
    def test_spec_values(self):
        start = LegendrianInvariants(3, 0)
        assert stabilize(start, "positive", 3) == LegendrianInvariants(0, 3)
        assert stabilize(start, "positive", 0) == LegendrianInvariants(3, 0)
        assert stabilize(LegendrianInvariants(1, 0), "negative", 2) == (
            LegendrianInvariants(-1, -2)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="direction"):
            stabilize(LegendrianInvariants(0, 0), "sideways")
        with pytest.raises(ValueError, match="count"):
            stabilize(LegendrianInvariants(0, 0), "positive", -1)


class TestSatelliteInvariants:
    def test_genus_two_companion(self):
        sat = satellite_invariants(PATTERN, LegendrianInvariants(0, 3))
        assert (sat.tb, sat.rot) == (2, 3)
        assert sat.tb + abs(sat.rot) == 5
        assert sat.writhe is None and sat.cusps is None

    def test_trivial_pattern_is_identity(self):
        trivial = PatternData("core", winding=1, tb=0, rot=0)
        for tb, rot in [(0, 1), (3, -2), (-1, 0)]:
            sat = satellite_invariants(trivial, LegendrianInvariants(tb, rot))
            assert (sat.tb, sat.rot) == (tb, rot)

    def test_winding_scales_quadratically(self):
        two = PatternData("two-cable", winding=2, tb=1, rot=0)
        sat = satellite_invariants(two, LegendrianInvariants(1, 0))
        assert (sat.tb, sat.rot) == (5, 0)


class TestGenusBounds:
    def test_values(self):
        assert genus_bounds(LegendrianInvariants(2, 3)) == GenusBounds(
            g4_lower=3, tau_lower=Fraction(3), s_lower=6
        )
        assert genus_bounds(LegendrianInvariants(-1, 0)).g4_lower == 0
        assert genus_bounds(LegendrianInvariants(0, 1)).tau_lower == 1

    def test_monotone(self):
        for tb in range(-3, 4):
            for rot in range(0, 4):
                here = genus_bounds(LegendrianInvariants(tb, rot))
                more_tb = genus_bounds(LegendrianInvariants(tb + 1, rot))
                more_rot = genus_bounds(LegendrianInvariants(tb, rot + 1))
                for bigger in (more_tb, more_rot):
                    assert bigger.g4_lower >= here.g4_lower
                    assert bigger.tau_lower >= here.tau_lower
                    assert bigger.s_lower >= here.s_lower


TREFOIL_PROFILE = KnotProfile(
    "RH-trefoil",
    seifert=SeifertMatrix([[-1, 1], [0, -1]], name="RH-trefoil"),
    declared_tau=Cited(1, "tau of the (2,3) torus knot"),
    declared_s=Cited(2, "s of the (2,3) torus knot"),
    declared_genus=Cited(1, "Seifert genus of the trefoil"),
    declared_slice_genus=CitedBounds(1, 1, "slice genus of the trefoil"),
)


# the (2,5) torus knot at its maximal tb = 2g - 1 = 3, rot 0
TORUS_2_5 = front_from_text("O E\nL 0\nL 2\n" + "X 1\n" * 5 + "R 2\nR 0\n")
# the same front with two zigzags on its top strand: tb 1, rot 2
TORUS_2_5_TWICE_STABILIZED = front_from_text(
    "O W\nL 0\nL 0\nR 1\nL 0\nR 1\nL 2\n" + "X 1\n" * 5 + "R 2\nR 0\n"
)


class TestSatelliteGenusPipeline:
    def test_trefoil(self):
        report = satellite_genus_pipeline(
            TREFOIL_PROFILE, {"legendrian-RH-trefoil-maxtb": TREFOIL_MAXTB}, PATTERN
        )
        assert report.front == "legendrian-RH-trefoil-maxtb"
        assert report.realization == TREFOIL_MAXTB.invariants()
        assert report.genus == 1
        assert (report.stabilized.tb, report.stabilized.rot) == (0, 1)
        assert (report.satellite.tb, report.satellite.rot) == (2, 1)
        assert report.bounds == GenusBounds(2, Fraction(2), 4)
        text = "\n".join(report.conclusions)
        assert "g4 strictly increases: 2 > 1" in text
        assert "tau strictly increases" in text
        assert "s strictly increases" in text
        assert "Z-homology cobordant rel meridians" in text

    def test_genus_two_bound(self):
        inv = TORUS_2_5.invariants()
        assert (inv.tb, inv.rot) == (3, 0)
        profile = KnotProfile(
            "genus-two-positive-braid",
            declared_genus=Cited(2, "positive braid closure genus"),
        )
        report = satellite_genus_pipeline(profile, {"T(2,5)": TORUS_2_5}, PATTERN)
        assert (report.satellite.tb, report.satellite.rot) == (2, 3)
        assert report.bounds.g4_lower == 3

    def test_topologically_slice_note(self):
        wd = KnotProfile(
            "whitehead-double-RH-trefoil",
            declared_tau=Cited(1, "Hedden, Whitehead doubles"),
            declared_genus=Cited(1, "genus of the double"),
            topologically_slice=Cited(True, "trivial Alexander polynomial"),
        )
        report = satellite_genus_pipeline(
            wd, {"whitehead-double-RH-trefoil": WHITEHEAD_FRONT}, PATTERN
        )
        text = "\n".join(report.conclusions)
        assert "tau strictly increases" in text
        assert "both knots are topologically slice" in text

    def test_first_closed_front_with_the_invariants(self):
        # the annular pattern front and the tb-0 front come first
        fronts = {
            "paper-pattern-P": PATTERN_FRONT,
            "legendrian-RH-trefoil": TREFOIL_FRONT,
            "legendrian-RH-trefoil-maxtb": TREFOIL_MAXTB,
            "again": TREFOIL_MAXTB,
        }
        report = satellite_genus_pipeline(TREFOIL_PROFILE, fronts, PATTERN)
        assert report.front == "legendrian-RH-trefoil-maxtb"
        with pytest.raises(HypothesisNotMet, match="tb = 2g - 1 = 1 with rot = 0"):
            satellite_genus_pipeline(
                TREFOIL_PROFILE, {"paper-pattern-P": PATTERN_FRONT}, PATTERN
            )
        with pytest.raises(TypeError, match="KnotProfile"):
            satellite_genus_pipeline("RH-trefoil", fronts, PATTERN)

    def test_hypotheses(self):
        with pytest.raises(HypothesisNotMet, match="no declared genus"):
            satellite_genus_pipeline(
                KnotProfile("bare"), {"maxtb": TREFOIL_MAXTB}, PATTERN
            )
        inv = TREFOIL_FRONT.invariants()
        assert (inv.tb, inv.rot) == (0, 1)
        with pytest.raises(HypothesisNotMet, match="tb = 2g - 1"):
            satellite_genus_pipeline(
                TREFOIL_PROFILE, {"stabilized": TREFOIL_FRONT}, PATTERN
            )
        inv = TORUS_2_5_TWICE_STABILIZED.invariants()
        assert (inv.tb, inv.rot) == (1, 2)
        with pytest.raises(HypothesisNotMet, match="rot"):
            satellite_genus_pipeline(
                TREFOIL_PROFILE, {"rot-2": TORUS_2_5_TWICE_STABILIZED}, PATTERN
            )


DIGESTS = Path(__file__).resolve().parent / "data" / "front_digests.json"
BUNDLED = {
    "legendrian-RH-trefoil": TREFOIL_FRONT,
    "legendrian-RH-trefoil-maxtb": TREFOIL_MAXTB,
    "paper-pattern-P": PATTERN_FRONT,
    "satellite-P-of-trefoil": SATELLITE_FRONT,
    "whitehead-double-RH-trefoil": WHITEHEAD_FRONT,
}


def test_reversing_the_orientation_negates_winding_and_rot():
    """Rebuilt with the other orient, each bundled front and 200 seeded
    one-component patterns keep tb, writhe and the cusp count, and
    negate winding and rot."""
    rng = random.Random(29)
    fronts = list(BUNDLED.values())
    while len(fronts) < len(BUNDLED) + 200:
        n = rng.randint(1, 4)
        front = FrontDiagram(_random_pattern(rng, n, rng.randint(0, 12)), seam_strands=n)
        if front.is_closed and front.component_count == 1:
            fronts.append(front)
    reversed_ = {}
    for front in fronts:
        back = FrontDiagram(front.events, front.seam_strands, "W" if front.orient == "E" else "E")
        inv, rev = front.invariants(), back.invariants()
        assert (rev.tb, rev.writhe, rev.cusps) == (inv.tb, inv.writhe, inv.cusps)
        assert (back.winding(), rev.rot) == (-front.winding(), -inv.rot)
        reversed_[front] = back.winding(), rev.rot
    assert reversed_[TREFOIL_FRONT][1] == -1 and reversed_[PATTERN_FRONT][0] == -1
    assert sum(rot != 0 for _, rot in reversed_.values()) >= 50
    assert sum(w != 0 for w, _ in reversed_.values()) >= 50


def front_digest_cases():
    """Fronts by name: the n-copy cable of every bundled front and the
    satellite of every closed one with the twist pattern, n = 1..14; then
    the satellite of every closed bundled front with paper-pattern-P."""
    closed = {name: front for name, front in BUNDLED.items() if not front.seam_strands}
    for n in range(1, 15):
        for name, front in BUNDLED.items():
            yield f"cable {name} n={n}", cable_front, (front, n)
        for name, front in closed.items():
            yield f"satellite {name} twist n={n}", satellite_front, (front, _twist(n))
    for name, front in closed.items():
        yield f"satellite {name} paper-pattern-P", satellite_front, (front, PATTERN_FRONT)


def _invariant_fields(inv):
    """The six fields of LegendrianInvariants, in order."""
    return (inv.tb, inv.rot, inv.writhe, inv.cusps, inv.down_left_cusps, inv.up_right_cusps)


def _front_record(build, args):
    """sha256 of the events, then the component count, the winding and
    (tb, rot, writhe, cusps, down_left, up_right); each read that raises
    gives [exception type, message] instead."""
    try:
        front = build(*args)
    except FrontError as exc:  # the exception is the result
        return [type(exc).__name__, str(exc)]
    record = [hashlib.sha256(json.dumps(front.events).encode()).hexdigest()]
    for read in (lambda: front.component_count, front.winding, lambda: _invariant_fields(front.invariants())):
        try:
            record.append(read())
        except FrontError as exc:
            record.append([type(exc).__name__, str(exc)])
    return record


def record_front_digests():
    return {name: _front_record(build, args) for name, build, args in front_digest_cases()}


def test_fronts_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    got = json.loads(json.dumps(record_front_digests()))
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record_front_digests(), indent=1) + "\n")
