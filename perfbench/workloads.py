"""The four workloads: seeded operation lists, how to run each operation,
and how to check its answer against the oracles.

A workload is a fixed schedule of operation *slots* repeated in cycles;
the seed fills every slot with fresh inputs, so all seeds do the same mix
of work and only the inputs differ.  An operation is plain data (an
``Op``); ``prepare`` turns it into library inputs outside the timed
region, ``run`` is the timed call, and ``check`` compares the answer with
the oracle, returning an outcome ``(status, digest)``.  The status is
``ok``, ``wrong``, ``raise:<Exception>`` or ``deadline``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import families as F
import oracles as O


class Deadline(BaseException):
    """Raised by the interval timer when an operation overruns its deadline.
    A BaseException, so no ``except Exception`` in the library swallows it."""


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    args: tuple
    deadline_s: float


# Catalog knots as summands, and their declared tau values.
CATALOG_KNOTS = {
    "RH-trefoil": (("torus", 3, False),),
    "figure-eight": (("twist", 1, False),),
    "3-twist-negative-clasp": (("twist", 3, False),),
    "whitehead-double-RH-trefoil": (("twist", 0, False),),
}
CATALOG_TAU = {"RH-trefoil": 1, "figure-eight": 0, "whitehead-double-RH-trefoil": 1}
TREFOIL = ("torus", 3, False)
THREE_TWIST = ("twist", 3, False)

SMALL_B = (3, 5, 7, 11, 13)
COMPOSITE_B = (12, 30, 60)
LARGE_B = (210, 420, 1260)


def _omega(rng, b):
    """A random primitive b-th root of unity, as (a, b)."""
    return rng.choice([a for a in range(1, b) if math.gcd(a, b) == 1]), b


def _singular_omega(rng, knot):
    """A root of unity that is a root of a torus summand's Alexander
    polynomial: angle (2j - 1)/(2q) other than 1/2."""
    q = rng.choice([n for kind, n, _ in knot.summands if kind == "torus"])
    f = Fraction(2 * rng.randrange(1, (q + 1) // 2) - 1, 2 * q)
    return f.numerator, f.denominator


def _torus(rng, g: int) -> F.Knot:
    return F.scrambled(rng, [("torus", 2 * g + 1, rng.random() < 0.5)])


class Slots:
    """Collects one cycle's operations; ids are ``cycle.slot``."""

    def __init__(self, c: int):
        self.c = c
        self.ops: list[Op] = []
        self.count = 0

    def add(self, kind, args, deadline=8.0, name=None):
        """Add an operation; ``name`` replaces the slot number in its id."""
        self.ops.append(Op(f"{self.c}.{self.count if name is None else name}", kind, args, deadline))
        self.count += 1

    def shuffled(self, rng) -> list[Op]:
        rng.shuffle(self.ops)
        return self.ops


# -- sigma-sweep ------------------------------------------------------------------

def sigma_sweep_cycle(rng, c: int) -> list[Op]:
    """Every cycle has the same slots, and the first cycle also the dense
    genus 7 and 8 determinants; the seed picks the knots and numerators,
    and the cycle index rotates the denominators.  Determinants use fully
    dense matrices, whose cost hardly depends on the seed.  The median sits
    in a block of twenty similar queries (step functions of T(2,5), about
    25 ms each), with as many cheaper operations below as dearer ones
    above; this keeps op_p50_ms steady across seeds, and away from the
    few-millisecond operations that a busy host slows the most."""
    s = Slots(c)
    for i in range(2):
        for g in (1, 2, 3):
            s.add("alexander", (F.random_knot(rng, g, density=4),))
        s.add("levine_tristram", (_torus(rng, 1), *_omega(rng, SMALL_B[(c + i) % 5])))
        s.add("levine_tristram", (_torus(rng, 2), *_omega(rng, SMALL_B[(c + i + 2) % 5])))
        s.add("levine_tristram", (F.random_knot(rng, 1), *_omega(rng, COMPOSITE_B[(c + i) % 3])))
    s.add("alexander", (F.random_knot(rng, 4, density=4),))
    s.add("levine_tristram", (_torus(rng, 3), *_omega(rng, SMALL_B[c % 5])))
    s.add("signature_function", (_torus(rng, 1),))
    k = F.random_knot(rng, 1 + c % 3, first=[("torus", 3, rng.random() < 0.5)])
    s.add("levine_tristram", (k, *_singular_omega(rng, k)))
    for _ in range(20):
        s.add("signature_function", (_torus(rng, 2),))
    s.add("signature_function", (_torus(rng, 3),))
    s.add("alexander", (F.random_knot(rng, 5, density=4),))
    for g in (5, 6):
        s.add("alexander", (F.random_knot(rng, g, density=4),))
    s.add("levine_tristram", (F.random_knot(rng, 3), *_omega(rng, COMPOSITE_B[c % 3])))
    s.add("levine_tristram", (F.random_knot(rng, 2), *_omega(rng, LARGE_B[c % 3])))
    s.add("levine_tristram", (F.random_knot(rng, 1), *_omega(rng, LARGE_B[(c + 1) % 3])))
    s.add("levine_tristram", (F.random_knot(rng, 4), *_omega(rng, (5, 7)[c % 2])))
    s.add("levine_tristram", (F.random_knot(rng, 5), *_omega(rng, 3)))
    # fixed inputs with known failures, counted in every cycle; T+F+F+T twice,
    # so that with the dense genus-6 determinants it fills the band of
    # similar costs where op_tail_ms falls
    for _ in range(2):
        s.add("levine_tristram", (F.Knot((TREFOIL, THREE_TWIST, THREE_TWIST, TREFOIL)), 1, 16))
    s.add("signature_function", (F.Knot((THREE_TWIST, THREE_TWIST)),))
    s.add("signature_function", (F.Knot((("torus", 9, False),)),))
    s.add("levine_tristram", (F.Knot((TREFOIL,)), 1, 55440), 0.25)
    ops = s.shuffled(rng)
    if c == 0:
        # dense genus 7 (about 2.3 s) and 8 (about 11 s, so it misses its
        # deadline at the seed commit) open the run, where the memory they
        # take does not depend on what ran before
        s.ops = []
        s.add("alexander", (F.random_knot(rng, 7, density=4),))
        s.add("alexander", (F.random_knot(rng, 8, density=4),), 2.0)
        ops = s.ops + ops
    return ops


def prep_knot(ctx, op):
    return op.args[0].seifert()


def run_alexander(ctx, m, op):
    return dict(ctx.lib.alexander(ctx.lib.SeifertMatrix(m)).items())


def check_alexander(ctx, op, answer):
    ok = O.lp_doteq(answer, O.knot_delta(op.args[0].summands))
    return ok, str(sorted(answer.items()))


def run_levine_tristram(ctx, m, op):
    _, a, b = op.args
    try:
        return ctx.lib.levine_tristram(ctx.lib.SeifertMatrix(m), ctx.lib.RootOfUnity(a, b))
    except ctx.lib.SingularAtOmega:
        return O.SINGULAR


def check_levine_tristram(ctx, op, answer):
    knot, a, b = op.args
    return answer == O.sigma(knot.summands, Fraction(a, b)), str(answer)


def run_signature_function(ctx, m, op):
    return ctx.lib.signature_function(ctx.lib.SeifertMatrix(m))


def check_signature_function(ctx, op, sf):
    jumps = O.knot_jumps(op.args[0].summands)
    heights = [h for _, h in sf.jumps()]
    if heights != [h for _, h in jumps]:
        return False, str(heights)
    values = [sf.evaluate(q) for q in O.arc_samples(jumps)]
    expected = [O.sigma(op.args[0].summands, q) for q in O.arc_samples(jumps)]
    return values == expected, str((heights, values))


# -- cable-obstruct ------------------------------------------------------------------

# Twist knots whose Alexander polynomial is irreducible, so no Fox-Milnor
# product is a norm at k = 1 by accident (n = 2 gives a slice knot).
IRREDUCIBLE_TWISTS = (-3, -2, 1, 3, 4)


def _single(rng):
    """A genus-one knot with an irreducible Alexander polynomial."""
    if rng.random() < 0.5:
        return ("gen", F.scrambled(rng, [("torus", 3, rng.random() < 0.5)]))
    return ("gen", F.scrambled(rng, [("twist", rng.choice(IRREDUCIBLE_TWISTS), rng.random() < 0.5)]))


def _trefoil(rng):
    return ("gen", F.scrambled(rng, [("torus", 3, rng.random() < 0.5)]))


def cable_obstruct_cycle(rng, c: int) -> list[Op]:
    """Every cycle has the same slots.  Finite-order scans come in three
    kinds with different costs: a witness found early (torus summands of
    one handedness), a full scan of a signature without jumps (twist knots
    n > 0), and a full scan past jumps that cancel (K # mirror K).  As in
    sigma-sweep, the median sits in a block of similar queries: Fox-Milnor
    tests of a trefoil against its (2,1)-cable up to k = 3 (about 20 ms)."""
    s = Slots(c)
    p = 2 + c % 2
    for _ in range(5):
        s.add("finite_order", (_trefoil(rng), p, 400))
        s.add("fox_milnor", ((_single(rng), 1, False), (_single(rng), 1, False), 2))
    for _ in range(4):
        s.add("verdict", ((_single(rng), 1, False), (_single(rng), 1, False), 3, 211))
    for _ in range(16):
        base = _trefoil(rng)
        s.add("fox_milnor", ((base, 1, False), (base, 2, False), 3))
    for _ in range(2):
        base = _trefoil(rng)
        s.add("verdict", ((base, 1, False), (base, p, False), 3, 211))
        knot = F.scrambled(rng, [("torus", 5, rng.random() < 0.5)])
        s.add("finite_order", (("gen", knot), p, 400))
    # torus summands of one handedness: the signature cannot cancel out
    knot = F.random_knot(rng, 3, torus_share=1, mirrored=rng.random() < 0.5)
    s.add("finite_order", (("gen", knot), p, 400))
    for g in (1, 2):
        twists = rng.sample((1, 3, 4), g)  # distinct: a repeated factor is the F#F defect below
        s.add("finite_order", (("gen", F.scrambled(rng, [("twist", n, False) for n in twists])), p, 300))
    s.add("finite_order", (("gen", F.Knot((THREE_TWIST, THREE_TWIST))), p, 300))
    knot = ("torus", 3, rng.random() < 0.5)
    s.add("finite_order", (("gen", F.scrambled(rng, [knot, (knot[0], knot[1], not knot[2])])), p, 100))
    s.add("finite_order", (("cat", sorted(CATALOG_KNOTS)[c % 4]), p, 400))
    base = _single(rng)
    s.add("fox_milnor", ((base, 1, False), (base, p, False), 6 + c % 3))
    base = ("gen", F.scrambled(rng, [("torus", 5, rng.random() < 0.5)]))
    s.add("fox_milnor", ((base, 1, False), (base, 2, False), 3))
    s.add("fox_milnor", ((_single(rng), 1, False), (_single(rng), 1, False), 4))
    cat = ("cat", sorted(CATALOG_KNOTS)[(c + 1) % 4])
    s.add("fox_milnor", ((cat, 1, False), (cat, 2, False), 4 + c % 3))
    tau_knot = ("cat", sorted(CATALOG_TAU)[c % 3])
    s.add("verdict", ((tau_knot, 1, False), (tau_knot, p, True), 4, 211))
    return s.shuffled(rng)


def _summands(spec):
    source, data = spec
    return CATALOG_KNOTS[data] if source == "cat" else data.summands


def _profile(ctx, full_spec):
    (source, data), p, tau_rule = full_spec
    lib = ctx.lib
    if source == "cat":
        base = ctx.catalog.profile(data)
    else:
        base = lib.KnotProfile(data.label(), seifert=lib.SeifertMatrix(data.seifert()))
    if p == 1:
        return base
    return lib.tau_cable_rule(base, p) if tau_rule else lib.cable_profile(base, p)


def _sigma_of(full_spec):
    spec, p, _ = full_spec
    summands = _summands(spec)
    return lambda q: O.sigma(summands, Fraction(q) * p)


def _omega_of(root):
    return root.numerator, root.denominator


def _report_data(ctx, report):
    """An ObstructionReport as plain data."""
    witnesses = []
    for w in report.witnesses:
        data = {}
        for key, value in w.data.items():
            if isinstance(value, ctx.lib.LaurentPoly):
                value = dict(value.items())
            elif isinstance(value, ctx.lib.RootOfUnity):
                value = _omega_of(value)
            data[key] = value
        witnesses.append((w.kind, data))
    return report.verdict, report.category, witnesses


def run_finite_order(ctx, _, op):
    spec, p, bound = op.args
    return _report_data(ctx, ctx.lib.finite_order_obstruction(_profile(ctx, (spec, 1, False)), p, bound))


def check_finite_order(ctx, op, answer):
    spec, p, bound = op.args
    verdict, _, witnesses = answer
    expected = O.finite_order_witness(_summands(spec), p, bound)
    if expected is None:
        ok = verdict == "no-obstruction-found" and not witnesses
    else:
        a, b, power = expected
        ok = verdict == "obstructed" and witnesses == [(
            "signature-at-root-of-unity",
            {"omega": (a, b), "p": p, "sigma_at_omega": 0, "sigma_at_omega_power": power},
        )]
    return ok, str((verdict, witnesses))


def _deltas(full_specs):
    return [O.lp_power_sub(O.knot_delta(_summands(spec)), p) for spec, p, _ in full_specs]


def check_fox_milnor_report(full_specs, k_max, verdict, witnesses) -> bool:
    deltas = _deltas(full_specs)
    predicted = O.fox_milnor_prediction([(_summands(s), p) for s, p, _ in full_specs], k_max)
    if verdict == "consistent-up-to-bounds":
        (kind, data), = witnesses
        k = data["k"]
        ok = kind == "fox-milnor-norm" and O.check_norm_witness(O.fox_milnor_product(deltas, k), data["f"])
        return ok and predicted in (None, k)
    if verdict != f"obstructed-up-to-complexity-{k_max}" or len(witnesses) != k_max:
        return False
    for k, (kind, data) in enumerate(witnesses, start=1):
        if kind != "fox-milnor-violation" or data["k"] != k:
            return False
        if not O.check_violation(O.fox_milnor_product(deltas, k), data):
            return False
    return predicted in (None, 0)


def run_fox_milnor(ctx, _, op):
    s0, s1, k_max = op.args
    report = ctx.lib.fox_milnor_obstruction(_profile(ctx, s0), _profile(ctx, s1), k_max)
    return _report_data(ctx, report)


def check_fox_milnor(ctx, op, answer):
    s0, s1, k_max = op.args
    verdict, _, witnesses = answer
    return check_fox_milnor_report((s0, s1), k_max, verdict, witnesses), str(answer)


def _tau(full_spec):
    (source, data), p, tau_rule = full_spec
    if source != "cat" or data not in CATALOG_TAU or (p > 1 and not tau_rule):
        return None
    return CATALOG_TAU[data] * p


def expected_verdict_witnesses(s0, s1, bound):
    """The tau and signature witnesses the verdict must carry, in order."""
    witnesses, category = [], None
    t0, t1 = _tau(s0), _tau(s1)
    if t0 is not None and t1 is not None and t0 != t1:
        witnesses.append(("tau-mismatch", (t0, t1)))
        category = "smooth"
    mismatch = O.signature_mismatch(_sigma_of(s0), _sigma_of(s1), bound)
    if mismatch is not None:
        a, b, v0, v1 = mismatch
        witnesses.append(("signature-mismatch", ((a, b), v0, v1)))
        category = "topological"
    return witnesses, category


def run_verdict(ctx, _, op):
    s0, s1, k_max, bound = op.args
    report = ctx.lib.rational_concordance_verdict(_profile(ctx, s0), _profile(ctx, s1), k_max, bound)
    return _report_data(ctx, report)


def check_verdict(ctx, op, answer):
    s0, s1, k_max, bound = op.args
    verdict, category, witnesses = answer
    expected, exp_category = expected_verdict_witnesses(s0, s1, bound)
    if expected:
        got = []
        for kind, data in witnesses:
            if kind == "tau-mismatch":
                got.append((kind, (data["tau_0"], data["tau_1"])))
            else:
                got.append((kind, (data.get("omega"), data.get("sigma_0"), data.get("sigma_1"))))
        ok = verdict == "obstructed" and category == exp_category and got == expected
    elif verdict == "no-obstruction-found":
        predicted = O.fox_milnor_prediction([(_summands(s), p) for s, p, _ in (s0, s1)], k_max)
        ok = not witnesses and predicted != 0
    else:
        ok = category == "topological" and check_fox_milnor_report((s0, s1), k_max, verdict, witnesses)
    return ok, str((verdict, category, witnesses))


# -- diagram-homology ------------------------------------------------------------------

COMPANIONS = sorted(O.FRONT_INVARIANTS)

# One cobordism block (p = 2) plus a torsion block [3], in a basis where the
# class mu_Ptilde_0 has a nonzero torsion coordinate after inverting 2; it
# still spans a free summand, so the meridian check should hold.  At the
# commit that defined the benchmark the library answers ClassMismatch: a
# known wrong answer (see KNOWN_WRONG).
TORSION_PROBE = F.Presentation((2,), (3,), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)))


def diagram_homology_cycle(rng, c: int) -> list[Op]:
    """Every cycle has the same slots; companions rotate with the slot."""
    s = Slots(c)
    for i, n in enumerate((2, 3, 4, 6, 8, 11, 14)):
        s.add("satellite", (COMPANIONS[(c + i) % 3], ("twist", n)))
    s.add("satellite", (COMPANIONS[c % 3], ("cat", "paper-pattern-P")))
    for i, n in enumerate((2, 5, 9, 13)):
        s.add("cable", (COMPANIONS[(c + i) % 3], n))
    for size in (6, 12, 24, 36, 48):
        s.add("snf", (F.random_presentation(rng, size),))
        s.add("homology", (F.random_presentation(rng, size),))
    for i, size in enumerate((6, 24, 48)):
        k = size // 3
        pres = F.Presentation(tuple(rng.randint(2, 7) for _ in range(k)), (), F.unimodular(rng, size, size))
        j = rng.randrange(k)
        # one slot in three asks with the wrong p, where ClassMismatch is right
        s.add("meridian", (pres, j, pres.cob_ps[j] + ((c + i) % 3 == 0)))
    s.add("meridian", (TORSION_PROBE, 0, 2), name="torsion-probe")
    return s.shuffled(rng)


def _pattern_front(ctx, pattern):
    kind, n = pattern
    if kind == "cat":
        return ctx.catalog.front(n)
    return ctx.lib.FrontDiagram(F.pattern_events(n), seam_strands=n)


def _pattern_invariants(pattern):
    kind, n = pattern
    return O.PATTERN_INVARIANTS[n] if kind == "cat" else O.twist_pattern_invariants(n)


def run_satellite(ctx, _, op):
    companion, pattern = op.args
    front = ctx.lib.satellite_front(ctx.catalog.front(companion), _pattern_front(ctx, pattern))
    inv = front.invariants()
    b = ctx.lib.genus_bounds(inv)
    return inv.tb, inv.rot, b.g4_lower, b.tau_lower, b.s_lower


def check_satellite(ctx, op, answer):
    companion, pattern = op.args
    tb, rot = O.satellite_tb_rot(O.FRONT_INVARIANTS[companion], _pattern_invariants(pattern))
    return answer == (tb, rot, *O.genus_bounds(tb, rot)), str(answer)


def run_cable(ctx, _, op):
    name, n = op.args
    front = ctx.lib.cable_front(ctx.catalog.front(name), n)
    return front.component_count, len(front.events)


def check_cable(ctx, op, answer):
    name, n = op.args
    events = ctx.catalog.front(name).events
    return answer == (n, O.cable_event_count(events, n)), str(answer)


def prep_presentation(ctx, op):
    pres = op.args[0]
    return pres.matrix, pres.classes


def run_snf(ctx, prepared, op):
    return ctx.lib.smith_normal_form(prepared[0])


def check_snf(ctx, op, answer):
    u, d, v = answer
    ok = O.check_snf(op.args[0].matrix, u, d, v, O.expected_snf(op.args[0]))
    return ok, str([d[i][i] for i in range(len(d))])


def run_homology(ctx, prepared, op):
    g = ctx.lib.first_homology(ctx.lib.SurgeryPresentation(*prepared))
    return g.rank, g.torsion, g.images


def check_homology(ctx, op, answer):
    return O.check_homology(op.args[0], *answer), str(answer[:2])


def run_meridian(ctx, prepared, op):
    _, i, p = op.args
    pres = ctx.lib.SurgeryPresentation(*prepared)
    try:
        check = ctx.lib.cobordism_meridian_check(pres, f"mu_K_{i}", f"mu_Ptilde_{i}", p)
    except ctx.lib.ClassMismatch:
        return "mismatch"
    return "holds", check.p, check.homology.rank


def check_meridian(ctx, op, answer):
    pres, i, p = op.args
    if p == pres.cob_ps[i]:
        return answer == ("holds", p, len(pres.cob_ps)), str(answer)
    return answer == "mismatch", str(answer)


# -- cli-cold ------------------------------------------------------------------------

CLI_KNOTS = sorted(CATALOG_KNOTS)


def cli_cold_cycle(rng, c: int) -> list[Op]:
    """The ten subcommand forms of the README, with seeded arguments."""
    a, b = _omega(rng, (SMALL_B + COMPOSITE_B)[c % 8])
    forms = [
        ["signature", rng.choice(CLI_KNOTS), "--omega", f"{a}/{b}"],
        ["alexander", rng.choice(CLI_KNOTS)],
        ["sigfn", rng.choice(CLI_KNOTS)],
        ["cable-obstruction", rng.choice(CLI_KNOTS), "--p", str(rng.choice((2, 3)))],
        ["fox-milnor", rng.choice(CLI_KNOTS), "--cable", str(rng.choice((2, 3))), "--k-max", str(2 + c % 4)],
        ["legendrian", "invariants", rng.choice(COMPANIONS)],
        ["legendrian", "satellite", "paper-pattern-P", rng.choice(COMPANIONS)],
        ["theorem31", "RH-trefoil"],
        ["homology-check", "--p", str(rng.randint(2, 9))],
        ["verdict", rng.choice(sorted(CATALOG_TAU)), "--cable", str(rng.choice((2, 3)))],
    ]
    rng.shuffle(forms)
    return [Op(f"{c}.{i}", "cli", (tuple(["--output", "json", *argv]),), 20.0) for i, argv in enumerate(forms)]


def run_cli(ctx, _, op):
    argv = list(op.args[0])
    cmd = [sys.executable, os.path.join(ctx.bench_dir, "cli_child.py")]
    if ctx.cli_trace_dir:
        cmd += ["--trace-to", os.path.join(ctx.cli_trace_dir, op.id + ".json")]
    cmd += ["--spawned-at", repr(time.monotonic()), "--", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=ctx.child_env, cwd=ctx.root, text=True)
    try:
        out, err = proc.communicate(timeout=op.deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Deadline() from None
    return proc.returncode, out, err


def _cli_expected_signature(knot, omega):
    a, b = (int(x) for x in omega.split("/"))
    return O.sigma(CATALOG_KNOTS[knot], Fraction(a, b))


def _parse_omega(text):
    """'e^(2*pi*i*a/b)' -> (a, b)."""
    a, b = text[len("e^(2*pi*i*"):-1].split("/")
    return int(a), int(b)


def _parse_report_witnesses(report):
    out = []
    for w in report["witnesses"]:
        data = dict(w["data"])
        for key in ("f", "factor"):
            if key in data:
                data[key] = O.lp_parse(data[key])
        if "omega" in data:
            data["omega"] = _parse_omega(data["omega"])
        out.append((w["kind"], data))
    return out


def check_cli(ctx, op, answer):
    rc, out, err = answer
    argv = list(op.args[0])[2:]
    cmd = argv[0]
    if cmd == "signature":
        expected = _cli_expected_signature(argv[1], argv[3])
        if expected == O.SINGULAR:
            return rc == 2 and "root of the Alexander polynomial" in err, f"rc={rc}"
    if rc != 0:
        return False, f"rc={rc} {err.strip()[:80]}"
    r = json.loads(out)
    if cmd == "signature":
        return r["signature"] == expected, str(r["signature"])
    if cmd == "alexander":
        got = O.lp_parse(r["alexander"])
        return O.lp_doteq(got, O.knot_delta(CATALOG_KNOTS[argv[1]])), r["alexander"]
    if cmd == "sigfn":
        jumps = O.knot_jumps(CATALOG_KNOTS[argv[1]])
        heights = [j["height"] for j in r["jumps"]]
        values = [a["signature"] for a in r["arcs"]]
        half = [O.sigma(CATALOG_KNOTS[argv[1]], q) for q in O.arc_samples(jumps)]
        expected_values = half + half[-2::-1]
        return heights == [h for _, h in jumps] and values == expected_values, str(values)
    if cmd == "cable-obstruction":
        p = int(argv[3])
        fake = Op(op.id, "finite_order", (("cat", argv[1]), p, r["parameters"]["denominator_bound"]), 0)
        return check_finite_order(ctx, fake, (r["verdict"], r["category"], _parse_report_witnesses(r)))
    if cmd == "fox-milnor":
        spec = ("cat", argv[1])
        specs = ((spec, 1, False), (spec, int(argv[3]), False))
        ok = check_fox_milnor_report(specs, int(argv[5]), r["verdict"], _parse_report_witnesses(r))
        return ok, r["verdict"]
    if cmd == "legendrian" and argv[1] == "invariants":
        return (r["tb"], r["rot"]) == O.FRONT_INVARIANTS[argv[2]], str((r["tb"], r["rot"]))
    if cmd == "legendrian":
        tb, rot = O.satellite_tb_rot(O.FRONT_INVARIANTS[argv[3]], O.PATTERN_INVARIANTS[argv[2]])
        return (r["satellite"]["tb"], r["satellite"]["rot"]) == (tb, rot), str(r["satellite"])
    if cmd == "theorem31":
        # maxtb realization tb = 2g - 1 = 1, rot 0; one positive stabilization
        tb, rot = O.satellite_tb_rot((0, 1), O.PATTERN_INVARIANTS["paper-pattern-P"])
        g4, tau, s = O.genus_bounds(tb, rot)
        b = r["bounds"]
        ok = (r["satellite"]["tb"], r["satellite"]["rot"]) == (tb, rot) and (
            b["g4_lower"], Fraction(b["tau_lower"]), b["s_lower"]) == (g4, tau, s)
        return ok, str(b)
    if cmd == "homology-check":
        p = int(argv[2])
        h = r["homology"]
        imgs = h["images"]
        ok = h["rank"] == 1 and not h["torsion"] and imgs["mu_K"] == [p * x for x in imgs["mu_Ptilde"]] \
            and abs(imgs["mu_Ptilde"][0]) == 1
        return ok, str(imgs)
    if cmd == "verdict":
        knot, p = argv[1], int(argv[3])
        fake = Op(op.id, "verdict", ((("cat", knot), 1, False), (("cat", knot), p, True),
                                     r["parameters"]["k_max"], r["parameters"]["denominator_bound"]), 0)
        return check_verdict(ctx, fake, (r["verdict"], r["category"], _parse_report_witnesses(r)))
    return False, "unknown command"


# -- registry -------------------------------------------------------------------------

KINDS = {
    "alexander": (prep_knot, run_alexander, check_alexander),
    "levine_tristram": (prep_knot, run_levine_tristram, check_levine_tristram),
    "signature_function": (prep_knot, run_signature_function, check_signature_function),
    "finite_order": (None, run_finite_order, check_finite_order),
    "fox_milnor": (None, run_fox_milnor, check_fox_milnor),
    "verdict": (None, run_verdict, check_verdict),
    "satellite": (None, run_satellite, check_satellite),
    "cable": (None, run_cable, check_cable),
    "snf": (prep_presentation, run_snf, check_snf),
    "homology": (prep_presentation, run_homology, check_homology),
    "meridian": (prep_presentation, run_meridian, check_meridian),
    "cli": (None, run_cli, check_cli),
}


# Operations whose wrong answer is a known defect of the library, by the
# part of the id after the cycle: counted as failed and listed, but they
# leave ``correct`` true.  Any other wrong answer makes it false.
KNOWN_WRONG = {
    "torsion-probe": "cobordism_meridian_check raises ClassMismatch for a class with a "
                     "torsion coordinate that still spans a free summand (Z/3 + Z)",
}


def known_wrong(op_id: str) -> bool:
    return op_id.split(".", 1)[1] in KNOWN_WRONG


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: object
    cycle_s: float  # nominal cycle time on 2 cores; a run does round(seconds / cycle_s) cycles
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sigma-sweep", sigma_sweep_cycle, 4.5,
                 "alexander, levine_tristram, signature_function on scrambled sums of genus 1-8: "
                 "time in seifert, cyclotomic, realroots; 202 ops a run, op_tail_ms is p95"),
        Workload("cable-obstruct", cable_obstruct_cycle, 2.5,
                 "finite-order, Fox-Milnor, verdict queries on genus 1-3 knots and cables: "
                 "time in laurent.factor and angle scans; 360 ops a run, op_tail_ms is p97"),
        Workload("cli-cold", cli_cold_cycle, 6.7,
                 "the ten README subcommands, each in a fresh interpreter: time in start-up, "
                 "imports and catalog load; 30 ops a run, op_tail_ms is p66"),
        Workload("diagram-homology", diagram_homology_cycle, 0.5,
                 "satellite and cable fronts up to 14 strands, Smith forms and homology up to size 48: "
                 "no polynomials; 1040 ops a run, op_tail_ms is p99"),
    )
}


def cycles(name: str, seconds: float) -> int:
    """How many cycles a run of the given length does: fixed work per run."""
    return max(1, round(seconds / WORKLOADS[name].cycle_s))


def operations(name: str, seed: int):
    """The workload's endless operation stream for a seed, cycle by cycle."""
    rng = random.Random(f"{name}:{seed}")
    c = 0
    while True:
        yield WORKLOADS[name].cycle(rng, c)
        c += 1
