"""Cable transforms and the rational-concordance obstruction reports."""

import random
import re
import time
from fractions import Fraction

import pytest
from _oracles import (
    clear_caches, scan_cable_witness, scan_signature_mismatch, scrambled_seifert,
)

from concordance.cabling import (
    Cited,
    CitedBounds,
    KnotProfile,
    MissingAlexander,
    MissingSeifert,
    MissingTau,
    cable_profile,
    cable_signature,
    finite_order_obstruction,
    fox_milnor_obstruction,
    profile_signature,
    rational_concordance_verdict,
    tau_cable_rule,
)
from concordance.catalog import load_catalog
from concordance.laurent import LaurentPoly, doteq, fox_milnor_pairing
from concordance.realroots import RootMarker
from concordance.seifert import (
    RootOfUnity,
    SeifertMatrix,
    SingularAtOmega,
    block_sum,
    levine_tristram,
    mirror,
    signature_function,
)

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="RH-trefoil")
FIGURE_EIGHT = SeifertMatrix([[-1, 1], [0, 1]], name="figure-eight")
TWIST3 = SeifertMatrix([[-1, 1], [0, 3]], name="3-twist-negative-clasp")
WHITEHEAD = SeifertMatrix([[-1, 1], [0, 0]], name="whitehead-double-RH-trefoil")

TREFOIL_PROFILE = KnotProfile("RH-trefoil", seifert=TREFOIL)
FIGURE_EIGHT_PROFILE = KnotProfile("figure-eight", seifert=FIGURE_EIGHT)
TWIST_PROFILE = KnotProfile("3-twist-negative-clasp", seifert=TWIST3)
UNKNOT_PROFILE = KnotProfile("unknot", seifert=SeifertMatrix([], name="unknot"))
WHITEHEAD_PROFILE = KnotProfile(
    "whitehead-double-RH-trefoil",
    seifert=WHITEHEAD,
    declared_tau=Cited(1, "Hedden, 'Knot Floer homology of Whitehead doubles'"),
    declared_genus=Cited(1, "the doubling surface has genus one"),
    topologically_slice=Cited(
        True, "trivial Alexander polynomial; Freedman and Quinn"
    ),
)
LH_TREFOIL_PROFILE = KnotProfile(
    "LH-trefoil",
    seifert=mirror(TREFOIL),
    declared_tau=Cited(-1, "tau negates under mirroring"),
    declared_genus=Cited(1, "mirror of a genus-one knot"),
)


def cable_alexander(delta, p):
    """delta(t^p), read off the (p,1)-cable's profile."""
    return cable_profile(KnotProfile("K", alexander=delta), p).alexander


class TestCableAlexander:
    def test_p1_is_identity(self):
        delta = TREFOIL_PROFILE.alexander
        assert cable_alexander(delta, 1) == delta

    def test_twist_knot_p2(self):
        delta = TWIST_PROFILE.alexander
        assert str(delta) == "3*t^1 - 7 + 3*t^-1"
        assert str(cable_alexander(delta, 2)) == "3*t^2 - 7 + 3*t^-2"

    def test_trivial_polynomial_fixed(self):
        one = LaurentPoly.one()
        assert cable_alexander(one, 5) == one

    def test_bad_p(self):
        with pytest.raises(ValueError):
            cable_alexander(LaurentPoly.one(), 0)
        with pytest.raises(ValueError):
            cable_alexander(LaurentPoly.one(), -2)

    def test_composition(self):
        rng = random.Random(1231)
        polys = [
            TREFOIL_PROFILE.alexander,
            TWIST_PROFILE.alexander,
            FIGURE_EIGHT_PROFILE.alexander,
        ]
        # a symmetric polynomial with delta(1) = 1 is an Alexander
        # polynomial: it is 1 + (t - 2 + 1/t) * h(t + 1/t) for an integer
        # polynomial h
        for _ in range(10):
            half = {e: rng.randint(-5, 5) for e in range(1, rng.randint(1, 4) + 1)}
            mirrored = {-e: c for e, c in half.items()}
            polys.append(LaurentPoly({**half, **mirrored, 0: 1 - 2 * sum(half.values())}))
        for delta in polys:
            for p in (1, 2, 3):
                for q in (1, 2, 4):
                    assert cable_alexander(
                        cable_alexander(delta, p), q
                    ) == cable_alexander(delta, p * q)


class TestCableSignature:
    def test_p1_unchanged(self):
        sig = signature_function(TREFOIL)
        same = cable_signature(sig, 1)
        assert (same._delta, same._values) == (sig._delta, sig._values)
        assert same.jumps() == sig.jumps() and same.arcs() == sig.arcs()

    def test_trefoil_p3_at_one_seventh(self):
        # omega = e^(2 pi i/7); omega^3 lands past the jump at angle 1/6
        sig = cable_signature(signature_function(TREFOIL), 3)
        assert sig.evaluate(Fraction(1, 7)) == -2

    def test_zero_function_stays_zero(self):
        sig = signature_function(FIGURE_EIGHT)
        assert sig.is_identically_zero()
        for p in (2, 3, 5):
            assert cable_signature(sig, p).is_identically_zero()

    def test_trefoil_p2_arcs(self):
        # jumps of the pullback sit at 1/12 and 5/12 (and mirrors)
        sig = cable_signature(signature_function(TREFOIL), 2)
        arcs = sig.arcs()
        assert [v for _, _, v in arcs] == [0, -2, 0, -2, 0]
        assert arcs[0][1] == pytest.approx(1 / 12, abs=1e-9)
        assert arcs[1][1] == pytest.approx(5 / 12, abs=1e-9)
        assert sig.is_jump(Fraction(1, 12))
        assert sig.is_jump(Fraction(5, 12))
        assert not sig.is_jump(Fraction(1, 6))
        assert not sig.is_jump(Fraction(1, 7))
        with pytest.raises(SingularAtOmega):
            sig.evaluate(Fraction(1, 12))

    def test_pullback_identity_random_angles(self):
        rng = random.Random(20260818)
        cases = [
            (signature_function(TREFOIL), 2),
            (signature_function(TREFOIL), 3),
            (signature_function(FIGURE_EIGHT), 2),
        ]
        pulled = [(base, p, cable_signature(base, p)) for base, p in cases]
        checked = 0
        while checked < 100:
            base, p, cable = pulled[checked % len(pulled)]
            b = rng.randint(2, 60)
            a = rng.randint(1, b - 1)
            q = Fraction(a, b)
            if cable.is_jump(q):
                continue
            assert cable.evaluate(q) == base.evaluate((p * q) % 1)
            checked += 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_catalog_cables_at_pinned_witnesses(self, p):
        # the pullback arcs are sampled at rational points 2cos(p*theta),
        # never through base.evaluate; the two routes must agree
        catalog = load_catalog()
        knots = [e.profile for e in catalog if e.profile and e.profile.seifert]
        assert len(knots) == 5
        for K in knots:
            base = signature_function(K.seifert)
            cable = cable_signature(base, p)
            for q in (Fraction(1, 7), Fraction(3, 7), Fraction(1, 3)):
                if cable.is_jump(q):
                    continue
                assert cable.evaluate(q) == base.evaluate((p * q) % 1), (K.name, q)


class TestKnotProfile:
    def test_alexander_computed_from_seifert(self):
        assert str(TREFOIL_PROFILE.alexander) == "1*t^1 - 1 + 1*t^-1"

    def test_declared_alexander_cross_checked(self):
        ok = KnotProfile(
            "RH-trefoil",
            seifert=TREFOIL,
            alexander=LaurentPoly.parse("t^2 - t^1 + 1"),
        )
        assert str(ok.alexander) == "1*t^1 - 1 + 1*t^-1"
        with pytest.raises(ValueError, match="does not match"):
            KnotProfile(
                "RH-trefoil",
                seifert=TREFOIL,
                alexander=LaurentPoly.parse("t^2 - 3*t^1 + 1"),
            )

    def test_citation_required(self):
        with pytest.raises(ValueError, match="citation"):
            Cited(1, "")
        with pytest.raises(ValueError, match="citation"):
            CitedBounds(0, 1, "   ")

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="at least one side"):
            CitedBounds(None, None, "x")
        with pytest.raises(ValueError, match="exceeds upper"):
            CitedBounds(2, 1, "x")
        with pytest.raises(ValueError, match="nonnegative"):
            CitedBounds(-1, 1, "x")

    def test_bools_are_not_declared_integers(self):
        with pytest.raises(ValueError, match="genus bounds must be nonnegative integers"):
            CitedBounds(True, None, "x")
        with pytest.raises(ValueError, match="declared genus must be"):
            KnotProfile("k", declared_genus=Cited(True, "x"))
        with pytest.raises(ValueError, match="declared tau must be"):
            KnotProfile("k", declared_tau=Cited(False, "x"))
        with pytest.raises(ValueError, match="declared s must be"):
            KnotProfile("k", declared_s=Cited(True, "x"))

    def test_profile_consistency_checks(self):
        full = KnotProfile(
            "RH-trefoil",
            seifert=TREFOIL,
            declared_tau=Cited(1, "tau of the (2,3) torus knot"),
            declared_genus=Cited(1, "genus of the (2,3) torus knot"),
            declared_slice_genus=CitedBounds(1, 1, "slice genus of the trefoil"),
        )
        assert full.declared_tau.value == 1
        with pytest.raises(ValueError, match="exceeds"):
            KnotProfile(
                "bad",
                seifert=TREFOIL,
                declared_genus=Cited(1, "x"),
                declared_slice_genus=CitedBounds(2, 2, "x"),
            )
        with pytest.raises(ValueError, match="tau"):
            KnotProfile(
                "bad",
                seifert=TREFOIL,
                declared_tau=Cited(2, "x"),
                declared_slice_genus=CitedBounds(1, 1, "x"),
            )
        # |tau| <= g4 <= g and |s| <= 2 g4, g4 read as its upper bound; s is even
        genus = {"declared_genus": Cited(1, "x")}
        g4 = {"declared_slice_genus": CitedBounds(0, 1, "x")}
        for declared, message in [
            ({**genus, "declared_tau": Cited(3, "x"), "declared_s": Cited(9, "x")},
             "'bad': |tau| = 3 exceeds genus 1"),
            ({**genus, "declared_tau": Cited(-2, "x")}, "'bad': |tau| = 2 exceeds genus 1"),
            ({**genus, "declared_s": Cited(4, "x")}, "'bad': |s| = 4 exceeds twice the genus 1"),
            ({**g4, "declared_s": Cited(-4, "x")},
             "'bad': |s| = 4 exceeds twice the slice genus bound 1"),
            ({"declared_s": Cited(3, "x")}, "'bad': s = 3 is odd"),
            # g4 <= g bounds the lower side too, declared alone or with the upper
            ({**genus, "declared_slice_genus": CitedBounds(3, None, "x")},
             "'bad': slice genus lower bound 3 exceeds genus 1"),
            ({**genus, "declared_slice_genus": CitedBounds(2, 2, "x")},
             "'bad': slice genus bound 2 exceeds genus 1"),
            ({**genus, "declared_s": Cited(1, "x")}, "'bad': s = 1 is odd"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                KnotProfile("bad", seifert=TREFOIL, **declared)
        # the trefoil's own values meet every bound
        KnotProfile("ok", seifert=TREFOIL, **genus, **g4,
                    declared_tau=Cited(1, "x"), declared_s=Cited(2, "x"))
        KnotProfile("ok", seifert=TREFOIL, **genus, declared_slice_genus=CitedBounds(1, None, "x"))

    def test_name_required(self):
        with pytest.raises(ValueError, match="name"):
            KnotProfile("")


class TestProfileSignature:
    def test_from_seifert(self):
        assert profile_signature(TREFOIL_PROFILE).evaluate(Fraction(1, 2)) == -2

    def test_from_cable(self):
        cable = cable_profile(TREFOIL_PROFILE, 2)
        assert cable.name == "RH-trefoil(2,1)"
        assert profile_signature(cable).evaluate(Fraction(1, 4)) == -2

    def test_nested_cable(self):
        nested = cable_profile(cable_profile(TREFOIL_PROFILE, 2), 3)
        # evaluates sigma at 6q; 6/12 = 1/2 sits in the jump region
        assert profile_signature(nested).evaluate(Fraction(1, 12)) == -2

    def test_missing_seifert(self):
        bare = KnotProfile("mystery", alexander=LaurentPoly.one())
        with pytest.raises(MissingSeifert):
            profile_signature(bare)


class TestFiniteOrderObstruction:
    def test_trefoil_p2(self):
        report = finite_order_obstruction(TREFOIL_PROFILE, 2)
        assert report.verdict == "obstructed"
        assert report.category == "topological"
        witness = report.witnesses[0]
        assert witness.kind == "signature-at-root-of-unity"
        assert witness.data["omega"] == RootOfUnity(1, 7)
        assert witness.data["sigma_at_omega_power"] == -2
        # re-verify the witness against the exact signature routine
        assert levine_tristram(TREFOIL, RootOfUnity(1, 7)) == 0
        assert levine_tristram(TREFOIL, RootOfUnity(2, 7)) == -2

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_trefoil_higher_p(self, p):
        report = finite_order_obstruction(TREFOIL_PROFILE, p)
        assert report.verdict == "obstructed"
        witness = report.witnesses[0]
        assert witness.data["omega"] == RootOfUnity(1, 7)
        assert witness.data["sigma_at_omega_power"] == -2
        assert levine_tristram(TREFOIL, RootOfUnity(p % 7, 7)) == -2

    def test_witness_avoids_jumps(self):
        for p in (2, 3):
            report = finite_order_obstruction(TREFOIL_PROFILE, p)
            omega = report.witnesses[0].data["omega"]
            sig = signature_function(TREFOIL)
            assert not sig.is_jump(omega)
            assert not cable_signature(sig, p).is_jump(omega)

    def test_a_second_query_computes_no_cosine(self, monkeypatch):
        # the witness search places each a/b at the precisions it needs, and
        # the enclosures are kept per process: the same query on the same
        # profile again reads each one from the cache
        from concordance import cyclotomic

        clear_caches()
        runs = []
        cos_fixed = cyclotomic._cos_fixed

        def spy(x, bits):
            runs.append(bits)
            return cos_fixed(x, bits)

        monkeypatch.setattr(cyclotomic, "_cos_fixed", spy)
        first = finite_order_obstruction(TREFOIL_PROFILE, 2)
        assert runs
        runs.clear()
        assert finite_order_obstruction(TREFOIL_PROFILE, 2) == first
        assert runs == []

    def test_figure_eight_finds_nothing(self):
        report = finite_order_obstruction(FIGURE_EIGHT_PROFILE, 2)
        assert report.verdict == "no-obstruction-found"
        assert report.category is None
        assert not report.witnesses
        assert report.notes[0].startswith("no bad arc:")

    def test_witness_beyond_the_bound(self):
        # the first witness is 1/7; a bound of 5 cannot reach it, but the
        # arc merge still knows that one exists
        report = finite_order_obstruction(TREFOIL_PROFILE, 2, denominator_bound=5)
        assert report.verdict == "no-obstruction-found"
        assert not report.witnesses
        assert report.notes == (
            "an obstruction exists, but its smallest witness has b > 5: on "
            "some arc sigma(omega) = 0 and sigma(omega^p) != 0",
        )
        report = finite_order_obstruction(TREFOIL_PROFILE, 2, denominator_bound=7)
        assert report.witnesses[0].data["omega"] == RootOfUnity(1, 7)

    def test_repeated_twist_factor(self):
        # Delta = (3t - 7 + 3/t)^2 has no roots on the circle
        profile = KnotProfile("F#F", seifert=block_sum(TWIST3, TWIST3))
        report = finite_order_obstruction(profile, 2)
        assert report.verdict == "no-obstruction-found"
        assert report.notes[0].startswith("no bad arc:")

    def test_unknot_finds_nothing(self):
        report = finite_order_obstruction(UNKNOT_PROFILE, 3)
        assert report.verdict == "no-obstruction-found"

    def test_cable_profile_input(self):
        # first witness for the (2,1)-cable against its own double cable
        report = finite_order_obstruction(cable_profile(TREFOIL_PROFILE, 2), 2)
        assert report.verdict == "obstructed"
        assert report.witnesses[0].data["omega"] == RootOfUnity(3, 7)

    def test_validation(self):
        with pytest.raises(ValueError, match="p >= 2"):
            finite_order_obstruction(TREFOIL_PROFILE, 1)
        with pytest.raises(MissingSeifert):
            finite_order_obstruction(KnotProfile("bare"), 2)


class TestFoxMilnorObstruction:
    def test_figure_eight_vs_unknot_consistent_at_two(self):
        report = fox_milnor_obstruction(FIGURE_EIGHT_PROFILE, UNKNOT_PROFILE, 2)
        assert report.verdict == "consistent-up-to-bounds"
        assert report.category is None
        witness = report.witnesses[0]
        assert witness.kind == "fox-milnor-norm"
        assert witness.data["k"] == 2
        assert doteq(witness.data["f"], LaurentPoly.parse("t^2 - t^1 - 1"))

    def test_figure_eight_vs_unknot_fails_at_one(self):
        report = fox_milnor_obstruction(FIGURE_EIGHT_PROFILE, UNKNOT_PROFILE, 1)
        assert report.verdict == "obstructed-up-to-complexity-1"
        witness = report.witnesses[0]
        assert doteq(witness.data["factor"], LaurentPoly.parse("t^2 - 3*t^1 + 1"))
        assert witness.data["multiplicity"] == 1
        assert witness.data["reason"] == "self-reciprocal factor with odd multiplicity"

    def test_unknot_vs_unknot(self):
        report = fox_milnor_obstruction(UNKNOT_PROFILE, UNKNOT_PROFILE, 1)
        assert report.verdict == "consistent-up-to-bounds"
        assert report.witnesses[0].data["k"] == 1
        assert doteq(report.witnesses[0].data["f"], LaurentPoly.one())

    def test_twist_vs_cable_all_k_fail(self):
        cable = cable_profile(TWIST_PROFILE, 2)
        report = fox_milnor_obstruction(TWIST_PROFILE, cable, 4)
        assert report.verdict == "obstructed-up-to-complexity-4"
        assert report.category == "topological"
        assert len(report.witnesses) == 4
        for witness in report.witnesses:
            k = witness.data["k"]
            expected = LaurentPoly.parse(f"3*t^{2 * k} - 7*t^{k} + 3")
            assert doteq(witness.data["factor"], expected)
            assert witness.data["multiplicity"] == 1
        assert any("Cha" in note for note in report.notes)

    def test_twist_vs_p3_cable(self):
        cable = cable_profile(TWIST_PROFILE, 3)
        report = fox_milnor_obstruction(TWIST_PROFILE, cable, 3)
        assert report.verdict == "obstructed-up-to-complexity-3"

    def test_trefoil_vs_cable_to_degree_120_is_fast(self):
        # at k = 20 the product is Phi_24 * Phi_48 * Phi_120 * Phi_240,
        # which ran for minutes when whole products were factored
        cable = cable_profile(TREFOIL_PROFILE, 2)
        start = time.perf_counter()
        report = fox_milnor_obstruction(TREFOIL_PROFILE, cable, 20)
        assert time.perf_counter() - start < 1.0
        assert report.verdict == "obstructed-up-to-complexity-20"
        last = report.witnesses[-1].data
        assert last["k"] == 20
        assert last["factor"] == LaurentPoly.from_coeffs([1, 0, 0, 0, -1, 0, 0, 0, 1])

    @pytest.mark.parametrize(
        "profile", [TREFOIL_PROFILE, FIGURE_EIGHT_PROFILE, TWIST_PROFILE]
    )
    def test_self_concordance_consistent_at_one(self, profile):
        report = fox_milnor_obstruction(profile, profile, 3)
        assert report.verdict == "consistent-up-to-bounds"
        assert report.witnesses[0].data["k"] == 1
        assert doteq(report.witnesses[0].data["f"], profile.alexander)

    def test_symmetry(self):
        pairs = [
            (FIGURE_EIGHT_PROFILE, UNKNOT_PROFILE, 2),
            (TWIST_PROFILE, cable_profile(TWIST_PROFILE, 2), 3),
        ]
        for k0, k1, k_max in pairs:
            forward = fox_milnor_obstruction(k0, k1, k_max)
            backward = fox_milnor_obstruction(k1, k0, k_max)
            assert forward.verdict == backward.verdict

    def test_each_polynomial_is_factored_once_per_process(self, monkeypatch):
        # the 3-twist knot against its (2,1)-cable to k = 4 needs delta(t^j)
        # for j in {1, 2, 3, 4} and {2, 4, 6, 8}; the trace polynomial of j = 1
        # is linear and never sent, j = 2, 3, 4 are certified irreducible
        # without factoring, j = 2, 4 come back from the cache, and j = 6, 8
        # are irreducible by Capelli's steps j = 2, 3 and 2, 4
        from concordance import intfactor

        clear_caches()
        degrees = []
        whole = intfactor.irreducible_factors

        def spy(b):
            degrees.append(len(b) - 1)
            return whole(b)

        monkeypatch.setattr(intfactor, "irreducible_factors", spy)
        cable = cable_profile(TWIST_PROFILE, 2)
        fox_milnor_obstruction(TWIST_PROFILE, cable, 4)
        assert degrees == []
        # the caches live in the process: a second call factors nothing,
        # and neither does a call on another profile with the same delta
        misses = intfactor._factors_at.cache_info().misses
        second = fox_milnor_obstruction(TWIST_PROFILE, cable, 4)
        renamed = KnotProfile("renamed-3-twist", alexander=TWIST_PROFILE.alexander)
        third = fox_milnor_obstruction(renamed, cable, 4)
        assert degrees == []
        assert intfactor._factors_at.cache_info().misses == misses
        assert third.verdict == second.verdict
        assert third.witnesses == second.witnesses

    def test_each_pairing_is_decided_once_per_pair_of_deltas_and_k(self):
        # the pairing at k reads delta_0 and delta_1 alone: a renamed
        # profile, the swapped pair and the verdict's Fox-Milnor half (the
        # renamed profile has no Seifert matrix, so the verdict rests on
        # Fox-Milnor) are each one lookup per k, with the same witnesses
        from concordance import cabling

        clear_caches()
        cable = cable_profile(TWIST_PROFILE, 2)
        first = fox_milnor_obstruction(TWIST_PROFILE, cable, 4)
        assert cabling._pairing_at.cache_info()[:2] == (0, 4)
        renamed = KnotProfile("renamed-3-twist", alexander=TWIST_PROFILE.alexander)
        reports = [
            fox_milnor_obstruction(renamed, cable, 4),
            fox_milnor_obstruction(cable, TWIST_PROFILE, 4),
            rational_concordance_verdict(renamed, cable, k_max=4),
        ]
        assert cabling._pairing_at.cache_info()[:2] == (12, 4)
        assert first.verdict == "obstructed-up-to-complexity-4"
        for report in reports:
            assert (report.verdict, report.witnesses) == (first.verdict, first.witnesses)

    def test_parts_route_matches_whole_product_at_every_k(self):
        # the report factors delta_0 and delta_1 by parts; each k must say
        # what fox_milnor_pairing says of the whole product at that k
        def twist(n):
            return LaurentPoly({1: n, 0: -(2 * n + 1), -1: n})

        def torus(q):
            return LaurentPoly({i - (q - 1) // 2: (-1) ** i for i in range(q)})

        r = random.Random(20261020)
        bases = [twist(n) for n in (-3, -2, -1, 1, 2, 3)] + [torus(q) for q in (3, 5, 7)]
        pairs = []
        for i in range(24):
            delta = r.choice(bases) * (r.choice(bases) if r.random() < 0.3 else LaurentPoly.one())
            K0 = KnotProfile(f"K{i}", alexander=delta)
            if i % 2:
                K1 = cable_profile(K0, r.choice((2, 3)))
            else:
                K1 = KnotProfile(f"L{i}", alexander=r.choice(bases + [LaurentPoly.one()]))
            pairs.append((K0, K1))
        for K0, K1 in pairs:
            report = fox_milnor_obstruction(K0, K1, 6)
            consistent = report.verdict == "consistent-up-to-bounds"
            # a norm at k ends the report with that one witness
            last = report.witnesses[0].data["k"] if consistent else 6
            for k in range(1, last + 1):
                product = K0.alexander.substitute_power(k) * K1.alexander.substitute_power(k)
                whole = fox_milnor_pairing(product)
                assert whole.is_norm == (consistent and k == last)
                if whole.is_norm:
                    assert report.witnesses[0].data == {"k": k, "f": whole.witness}
                elif not consistent:
                    data = report.witnesses[k - 1].data
                    assert data["k"] == k
                    assert data.get("factor") == whole.violating_factor
                    assert data.get("multiplicity") == whole.violating_multiplicity
                    assert data.get("content") == whole.violating_content
            assert consistent or report.verdict == "obstructed-up-to-complexity-6"

    def test_validation(self):
        with pytest.raises(MissingAlexander):
            fox_milnor_obstruction(KnotProfile("bare"), UNKNOT_PROFILE, 1)
        with pytest.raises(ValueError, match="k_max"):
            fox_milnor_obstruction(UNKNOT_PROFILE, UNKNOT_PROFILE, 0)


class TestTauCableRule:
    def test_whitehead_double_p3(self):
        cabled = tau_cable_rule(WHITEHEAD_PROFILE, 3)
        assert cabled.name == "whitehead-double-RH-trefoil(3,1)"
        assert cabled.declared_tau.value == 3
        assert "Hedden" in cabled.declared_tau.citation
        assert "Whitehead doubles" in cabled.declared_tau.citation
        assert doteq(cabled.alexander, LaurentPoly.one())
        assert cabled.topologically_slice.value is True
        assert "Freedman" in cabled.topologically_slice.citation

    def test_tau_zero_fixed(self):
        base = KnotProfile(
            "slicey",
            alexander=LaurentPoly.one(),
            declared_tau=Cited(0, "x"),
            declared_genus=Cited(0, "x"),
        )
        assert tau_cable_rule(base, 7).declared_tau.value == 0

    def test_p1_identity_value(self):
        base = KnotProfile(
            "RH-trefoil", seifert=TREFOIL, declared_tau=Cited(1, "torus knot tau")
        )
        assert tau_cable_rule(base, 1).declared_tau.value == 1

    def test_missing_tau(self):
        with pytest.raises(MissingTau):
            tau_cable_rule(TREFOIL_PROFILE, 2)

    def test_catalog_whitehead_double_citation(self):
        double = load_catalog().profile("whitehead-double-RH-trefoil")
        tau = cable_profile(double, 2).declared_tau
        assert tau == Cited(
            2,
            "tau(K(p,1)) = p*tau(K): Hedden, 'On knot Floer homology and "
            "cabling', Theorem 1.2; base value: Hedden, 'Knot Floer homology "
            "of Whitehead doubles'",
        )

    def test_only_tau_equal_to_genus_is_cabled(self):
        # Hom's cabling formula: for epsilon(K) = -1, which the left-handed
        # trefoil has, tau(K(p,1)) = p*tau(K) + p - 1, so p*tau(K) is wrong
        catalog = load_catalog()
        for K in (LH_TREFOIL_PROFILE, catalog.profile("figure-eight")):
            for p in (2, 3):
                assert cable_profile(K, p).declared_tau is None
                assert tau_cable_rule(K, p).declared_tau is None
        assert cable_profile(catalog.profile("unknot"), 5).declared_tau.value == 0
        assert cable_profile(catalog.profile("RH-trefoil"), 3).declared_tau.value == 3

    def test_p1_keeps_tau(self):
        for K in (LH_TREFOIL_PROFILE, load_catalog().profile("figure-eight")):
            assert cable_profile(K, 1).declared_tau.value == K.declared_tau.value

    def test_left_handed_trefoil_verdict_has_no_tau_witness(self):
        for cable in (cable_profile, tau_cable_rule):
            report = rational_concordance_verdict(
                LH_TREFOIL_PROFILE, cable(LH_TREFOIL_PROFILE, 2)
            )
            assert report.category == "topological"
            assert [w.kind for w in report.witnesses] == ["signature-mismatch"]
            assert "tau comparison unavailable: not declared for both knots" in (
                report.notes
            )


@pytest.mark.parametrize("bound", [2.5, True, 0, -3])
def test_library_bounds_are_checked_on_entry(bound):
    cable = cable_profile(TREFOIL_PROFILE, 2)
    with pytest.raises(ValueError, match="denominator_bound must be an integer >= 2"):
        finite_order_obstruction(TREFOIL_PROFILE, 2, denominator_bound=bound)
    with pytest.raises(ValueError, match="denominator_bound must be an integer >= 2"):
        rational_concordance_verdict(TREFOIL_PROFILE, cable, denominator_bound=bound)
    # a pair without Alexander polynomials never reaches fox_milnor_obstruction
    with pytest.raises(ValueError, match="k_max must be a positive integer"):
        rational_concordance_verdict(KnotProfile("a"), KnotProfile("b"), k_max=bound)


class TestRationalConcordanceVerdict:
    def test_whitehead_vs_cable_obstructed_smooth(self):
        cable = tau_cable_rule(WHITEHEAD_PROFILE, 2)
        report = rational_concordance_verdict(WHITEHEAD_PROFILE, cable)
        assert report.verdict == "obstructed"
        assert report.category == "smooth"
        witness = report.witnesses[0]
        assert witness.kind == "tau-mismatch"
        assert (witness.data["tau_0"], witness.data["tau_1"]) == (1, 2)
        assert any("topologically slice" in note for note in report.notes)

    def test_trefoil_vs_cable_obstructed_topological(self):
        cable = cable_profile(TREFOIL_PROFILE, 3)
        report = rational_concordance_verdict(TREFOIL_PROFILE, cable)
        assert report.verdict == "obstructed"
        assert report.category == "topological"
        witness = report.witnesses[0]
        assert witness.kind == "signature-mismatch"
        assert witness.data["omega"] == RootOfUnity(1, 3)
        assert (witness.data["sigma_0"], witness.data["sigma_1"]) == (-2, 0)

    def test_unknot_vs_unknot(self):
        report = rational_concordance_verdict(UNKNOT_PROFILE, UNKNOT_PROFILE)
        assert report.verdict == "no-obstruction-found"
        assert report.category is None
        assert not report.witnesses

    def test_figure_eight_vs_unknot_no_obstruction(self):
        report = rational_concordance_verdict(
            FIGURE_EIGHT_PROFILE, UNKNOT_PROFILE, k_max=2
        )
        assert report.verdict == "no-obstruction-found"
        assert any("norm at k = 2" in note for note in report.notes)

    def test_twist_vs_cable_bounded_obstruction(self):
        cable = cable_profile(TWIST_PROFILE, 2)
        report = rational_concordance_verdict(TWIST_PROFILE, cable, k_max=3)
        assert report.verdict == "obstructed-up-to-complexity-3"
        assert report.category == "topological"
        assert len(report.witnesses) == 3

    def test_signature_difference_beyond_the_bound(self):
        # the first mismatch of the trefoil and its (3,1)-cable is at 1/3
        cable = cable_profile(TREFOIL_PROFILE, 3)
        report = rational_concordance_verdict(
            TREFOIL_PROFILE, cable, k_max=1, denominator_bound=2
        )
        assert report.verdict == "obstructed-up-to-complexity-1"
        assert not any(w.kind == "signature-mismatch" for w in report.witnesses)
        assert (
            "the signature functions differ on some arc, but the smallest "
            "witness has b > 2"
        ) in report.notes

    def test_symmetry(self):
        wd_cable = tau_cable_rule(WHITEHEAD_PROFILE, 2)
        tre_cable = cable_profile(TREFOIL_PROFILE, 3)
        twist_cable = cable_profile(TWIST_PROFILE, 2)
        pairs = [
            (WHITEHEAD_PROFILE, wd_cable),
            (TREFOIL_PROFILE, tre_cable),
            (FIGURE_EIGHT_PROFILE, UNKNOT_PROFILE),
            (TWIST_PROFILE, twist_cable),
        ]
        for k0, k1 in pairs:
            forward = rational_concordance_verdict(k0, k1, k_max=2)
            backward = rational_concordance_verdict(k1, k0, k_max=2)
            assert forward.verdict == backward.verdict
            assert forward.category == backward.category

    def test_missing_data_shrinks_evidence(self):
        bare = KnotProfile("bare")
        report = rational_concordance_verdict(bare, UNKNOT_PROFILE)
        assert report.verdict == "no-obstruction-found"
        assert any("tau comparison unavailable" in note for note in report.notes)
        assert any(
            "signature comparison unavailable" in note for note in report.notes
        )
        assert any("Fox-Milnor test unavailable" in note for note in report.notes)


T_2_5 = SeifertMatrix([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]])
GENUS_ONE = (TREFOIL, FIGURE_EIGHT, TWIST3, SeifertMatrix([[-1, 1], [0, -2]]))


def _scan_cases():
    """60 seeded (knot, partner, p, bound) cases: random scrambled sums of
    genus at most 3 (every fifth one K # mirror K, whose jumps cancel) and
    cables of cables, against their (p,1)-cable or a second random knot,
    with p in {2, 3, 5} and bounds {7, 30, 100}."""
    rng = random.Random(20261018)

    def random_knot(label):
        blocks, genus = [], 0
        target = rng.randint(1, 3)
        while genus < target:
            v = rng.choice(GENUS_ONE + (T_2_5,) if target - genus >= 2 else GENUS_ONE)
            blocks.append(mirror(v) if rng.random() < 0.5 else v)
            genus += v.genus
        v = blocks[0]
        for w in blocks[1:]:
            v = block_sum(v, w)
        return KnotProfile(label, seifert=scrambled_seifert(rng, v))

    cases = []
    for i in range(60):
        p = (2, 3, 5)[i % 3]
        bound = (7, 30, 100)[(i // 3) % 3]
        if i % 10 == 7:
            base = KnotProfile(f"k{i}", seifert=scrambled_seifert(rng, rng.choice(GENUS_ONE)))
            knot = cable_profile(cable_profile(base, 2), rng.choice((2, 3)))
        elif i % 5 == 4:
            v = rng.choice(GENUS_ONE)
            knot = KnotProfile(f"k{i}", seifert=scrambled_seifert(rng, block_sum(v, mirror(v))))
        else:
            knot = random_knot(f"k{i}")
        partner = cable_profile(knot, p) if i % 2 else random_knot(f"j{i}")
        cases.append((knot, partner, p, bound))
    return cases


class TestAgainstAngleScan:
    """The arc merge gives the same witnesses, in the same order, as the
    prime-denominator angle scan it replaced (kept in _oracles)."""

    def test_finite_order_matches_scan(self):
        found = 0
        for knot, _, p, bound in _scan_cases():
            report = finite_order_obstruction(knot, p, bound)
            expected = scan_cable_witness(profile_signature(knot), p, bound)
            assert report.parameters == {
                "p": p, "denominator_bound": bound, "knot": knot.name
            }
            if expected is None:
                assert report.verdict == "no-obstruction-found", knot.name
                assert not report.witnesses
            else:
                found += 1
                assert report.verdict == "obstructed", knot.name
                data = report.witnesses[0].data
                assert (data["omega"], data["sigma_at_omega_power"]) == expected
        assert found >= 15

    def test_verdict_matches_scan(self):
        found = 0
        for knot, partner, _, bound in _scan_cases():
            report = rational_concordance_verdict(
                knot, partner, k_max=1, denominator_bound=bound
            )
            expected = scan_signature_mismatch(
                profile_signature(knot), profile_signature(partner), bound
            )
            got = [
                (w.data["omega"], w.data["sigma_0"], w.data["sigma_1"])
                for w in report.witnesses
                if w.kind == "signature-mismatch"
            ]
            assert got == ([] if expected is None else [expected]), knot.name
            if expected is not None:
                found += 1
                assert (report.verdict, report.category) == ("obstructed", "topological")
            else:
                assert report.verdict != "obstructed"
        assert found >= 15

    def test_witness_search_reads_no_float(self, monkeypatch):
        def no_float(marker):
            raise RuntimeError("a float reached the witness search")

        # jumps(), arcs() and repr() are the only readers of float_value
        monkeypatch.setattr(RootMarker, "float_value", no_float)
        self.test_finite_order_matches_scan()
        self.test_verdict_matches_scan()
