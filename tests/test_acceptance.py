"""Acceptance gate: eight criteria, each printing one pass/fail line.

Every criterion is exact (zero numeric tolerance) and carries a wall
clock budget.  Run with -s to see the per-criterion lines; a failing
criterion prints FAIL and re-raises."""

import random
import time
from fractions import Fraction

from _oracles import (
    assert_valid_snf,
    fox_milnor_disagreements,
    fox_milnor_oracle_cases,
)

from concordance.cabling import (
    cable_profile,
    finite_order_obstruction,
    fox_milnor_obstruction,
    profile_signature,
    rational_concordance_verdict,
)
from concordance.catalog import load_catalog
from concordance.laurent import LaurentPoly, doteq, factor
from concordance.legendrian import satellite_genus_pipeline
from concordance.seifert import (
    RootOfUnity,
    block_sum,
    levine_tristram,
    mirror,
)
from concordance.surgery import (
    cobordism_meridian_check,
    satellite_cobordism_presentation,
    smith_normal_form,
)

CATALOG = load_catalog()


def _criterion(number, label, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.3f}s")


def test_criterion_1_figure_reproduction():
    def body():
        expected = {
            "paper-pattern-P": (3, 2, 0, 0, 2, 0),
            "legendrian-RH-trefoil": (3, 6, 2, 1, 0, 1),
            "satellite-P-of-trefoil": (12, 20, 5, 4, 2, 1),
        }
        for name, target in expected.items():
            inv = CATALOG.front(name).invariants()
            got = (
                inv.writhe,
                inv.cusps,
                inv.down_left_cusps,
                inv.up_right_cusps,
                inv.tb,
                inv.rot,
            )
            assert got == target, f"{name}: {got} != {target}"

    _criterion(1, "figure reproduction", 1.0, body)


def test_criterion_2_satellite_genus_pipeline():
    def body():
        trefoil = CATALOG.profile("RH-trefoil")
        pattern = CATALOG.pattern("paper-pattern-P")
        fronts = CATALOG.entry("RH-trefoil").fronts
        result = satellite_genus_pipeline(trefoil, fronts, pattern)
        assert result.front == "legendrian-RH-trefoil-maxtb"
        assert result.bounds.g4_lower == 2
        assert result.bounds.tau_lower == Fraction(2)
        assert result.bounds.s_lower == 4
        # declared sharp companion values: tau = 1, s = 2, g4 = 1
        assert trefoil.declared_tau.value == 1
        assert trefoil.declared_s.value == 2
        assert trefoil.declared_slice_genus.upper == 1
        assert result.bounds.g4_lower > trefoil.declared_slice_genus.upper
        assert result.bounds.tau_lower > trefoil.declared_tau.value
        assert result.bounds.s_lower > trefoil.declared_s.value
        for fragment in (
            "g4 strictly increases: 2 > 1",
            "tau strictly increases",
            "s strictly increases",
        ):
            assert any(fragment in c for c in result.conclusions), fragment

    _criterion(2, "satellite genus pipeline", 1.0, body)


def test_criterion_3_cable_obstruction_witnesses():
    def body():
        trefoil = CATALOG.profile("RH-trefoil")
        for p in (2, 3, 4, 5):
            report = finite_order_obstruction(trefoil, p)
            assert report.verdict == "obstructed", p
            data = report.witnesses[0].data
            omega = data["omega"]
            assert data["sigma_at_omega"] == 0
            assert data["sigma_at_omega_power"] == -2
            # re-verify both evaluations with the exact signature routine
            assert levine_tristram(trefoil.seifert, omega) == 0
            power = RootOfUnity(omega.numerator * p, omega.denominator)
            assert levine_tristram(trefoil.seifert, power) == -2

    _criterion(3, "cable obstruction witnesses", 10.0, body)


def test_criterion_4_twist_knot_fox_milnor():
    def body():
        twist = CATALOG.profile("3-twist-negative-clasp")
        delta = twist.alexander
        for p in (2, 3):
            report = fox_milnor_obstruction(
                twist, cable_profile(twist, p), k_max=6
            )
            assert report.verdict == "obstructed-up-to-complexity-6", p
            assert len(report.witnesses) == 6
            for k, witness in enumerate(report.witnesses, start=1):
                assert witness.data["k"] == k
                assert witness.data["multiplicity"] == 1
                assert (
                    witness.data["reason"]
                    == "self-reciprocal factor with odd multiplicity"
                )
                delta_k = delta.substitute_power(k)
                assert doteq(witness.data["factor"], delta_k), (p, k)
                # certify irreducibility of delta(t^k)
                factors = factor(delta_k).factors
                assert len(factors) == 1 and factors[0][1] == 1, (p, k)

    _criterion(4, "twist knot Fox-Milnor", 30.0, body)


def test_criterion_5_figure_eight_consistency():
    def body():
        fig8 = CATALOG.profile("figure-eight")
        sig = profile_signature(fig8)
        assert sig.is_identically_zero()
        report = fox_milnor_obstruction(
            fig8, CATALOG.profile("unknot"), k_max=2
        )
        assert report.verdict == "consistent-up-to-bounds"
        witness = report.witnesses[0]
        assert witness.kind == "fox-milnor-norm"
        assert witness.data["k"] == 2
        assert doteq(witness.data["f"], LaurentPoly.parse("t^2 - t^1 - 1"))

    _criterion(5, "figure-eight consistency", 5.0, body)


def test_criterion_6_whitehead_double_verdict():
    def body():
        double = CATALOG.profile("whitehead-double-RH-trefoil")
        for p in (2, 3, 4, 5, 7):
            verdict = rational_concordance_verdict(double, cable_profile(double, p))
            assert verdict.verdict == "obstructed", p
            assert verdict.category == "smooth", p
            tau = next(
                w for w in verdict.witnesses if w.kind == "tau-mismatch"
            )
            assert (tau.data["tau_0"], tau.data["tau_1"]) == (1, p)
            assert any(
                "both knots are topologically slice" in note
                for note in verdict.notes
            ), p

    _criterion(6, "Whitehead double verdict", 1.0, body)


def test_criterion_7_homology_cobordism_check():
    def body():
        for p in (1, 2, 3, 5):
            pres = satellite_cobordism_presentation(p)
            result = cobordism_meridian_check(pres, "mu_K", "mu_Ptilde", p)
            assert result.homology.images["mu_K"] == (p,)
            assert result.homology.images["mu_Ptilde"] == (1,)
            assert any("integral check" in note for note in result.notes)
            assert any(
                "free rank-one summand" in note or "trivially" in note
                for note in result.notes
            )

    _criterion(7, "homology cobordism check", 1.0, body)


def test_criterion_8_property_suites():
    def body():
        # Fox-Milnor decision vs brute-force oracle, 200 products
        cases = fox_milnor_oracle_cases(20260818)
        assert len(cases) == 200
        assert not fox_milnor_disagreements(cases)

        # signature symmetries: 50 random roots of unity over catalog knots
        knots = [
            CATALOG.profile(name).seifert
            for name in (
                "unknot",
                "RH-trefoil",
                "figure-eight",
                "3-twist-negative-clasp",
                "whitehead-double-RH-trefoil",
            )
        ]
        rng = random.Random(20260818)
        for _ in range(50):
            b = rng.randint(2, 60)
            omega = RootOfUnity(rng.randint(1, b - 1), b)
            v0 = knots[rng.randrange(len(knots))]
            v1 = knots[rng.randrange(len(knots))]
            s0 = levine_tristram(v0, omega)
            assert levine_tristram(v0, RootOfUnity(-omega.numerator, omega.denominator)) == s0
            assert levine_tristram(mirror(v0), omega) == -s0
            assert levine_tristram(block_sum(v0, v1), omega) == s0 + levine_tristram(v1, omega)

        # Smith normal form on 200 random matrices up to 8x8
        rng = random.Random(8)
        for _ in range(200):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            assert_valid_snf(M, *smith_normal_form(M))

    _criterion(8, "property suites", 60.0, body)
