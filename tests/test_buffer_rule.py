"""One owner per integer buffer.  A Seifert matrix keeps A = V + V^T and
S = V - V^T as read-only tuples, and each reader builds from them the
rows that an elimination kernel overwrites; Phi_b is one tuple per
process, handed out as is, and so is each kept cable or satellite front,
which holds no list.  Nothing here builds a Seifert matrix at
import, so a constructor that breaks the rule fails these tests by name
rather than their collection."""

import copy
import random
from fractions import Fraction

import pytest
from _oracles import families, reference_alexander, reference_signature_at

import concordance.seifert as seifert_module
from concordance.catalog import load_catalog
from concordance.cyclotomic import cyclotomic_coeffs
from concordance.legendrian import FrontDiagram, cable_front, satellite_front
from concordance.seifert import RootOfUnity, SeifertMatrix, levine_tristram, signature_function


def _forms_of(entries):
    """V + V^T and V - V^T from the entries alone, as tuples of rows."""
    pairs = [*zip(entries, zip(*entries))]
    A = tuple(tuple(a + b for a, b in zip(row, col)) for row, col in pairs)
    S = tuple(tuple(a - b for a, b in zip(row, col)) for row, col in pairs)
    return A, S


def test_readers_leave_the_kept_forms_unchanged_and_answer_twice_alike():
    # omega = -1 is the sample u = 0 of the last arc, where the kernel's
    # scale s is 1; no Phi_101 divides a delta of degree at most 10
    rng = random.Random(35)
    for genus in range(1, 6):
        v = SeifertMatrix(families.random_knot(rng, genus, density=4).seifert())
        forms = _forms_of(v.entries)

        def answers():
            return (
                str(seifert_module._balanced_alexander(v)),
                levine_tristram(v, RootOfUnity(1, 2)),
                levine_tristram(v, RootOfUnity(3, 101)),
                signature_function(v)._values,
            )

        assert (v._A, v._S) == forms
        first = answers()
        assert (v._A, v._S) == forms
        assert answers() == first
        assert (v._A, v._S) == forms
        assert first[:2] == (str(reference_alexander(v)), reference_signature_at(*forms, Fraction(0)))


@pytest.mark.parametrize("b", [1, 15, 97])
def test_cyclotomic_coeffs_hands_out_one_tuple(b):
    phi = cyclotomic_coeffs(b)
    assert type(phi) is tuple
    assert cyclotomic_coeffs(b) is phi


def _lists_in(value):
    """The lists reachable from value through tuples and lists."""
    if isinstance(value, list):
        return [value, *(found for item in value for found in _lists_in(item))]
    if isinstance(value, tuple):
        return [found for item in value for found in _lists_in(item)]
    return []


def test_a_kept_front_holds_no_list_and_reads_twice_alike():
    # n = 4: the twist satellite and the cable both hold bundle moves
    trefoil = load_catalog().front("legendrian-RH-trefoil")
    twist = FrontDiagram([("X", i) for i in range(3)], seam_strands=4)
    for build, args in ((satellite_front, (trefoil, twist)), (cable_front, (trefoil, 4))):
        front = build(*args)
        assert front._bundles and _lists_in(tuple(vars(front).values())) == []

        def reads():
            try:
                invariants = front.invariants()
            except ValueError as exc:  # MultiComponent, for the cable
                invariants = str(exc)
            return front.events, front.component_count, front.winding(), invariants

        first, kept = reads(), copy.deepcopy(vars(front))
        assert build(*args) is front
        assert reads() == first
        assert vars(front) == kept
