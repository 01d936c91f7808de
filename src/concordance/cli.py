"""Command-line obstruction reports over the knot catalog.

Every subcommand recomputes its values from catalog data and renders a
deterministic report: rerunning a command yields byte-identical output.
Exit codes partition failures: 0 success, 2 input or validation errors,
3 a theorem hypothesis not met by the inputs, 4 internal errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .cabling import (
    DENOMINATOR_BOUND,
    K_MAX,
    MissingAlexander,
    MissingSeifert,
    cable_profile,
    finite_order_obstruction,
    fox_milnor_obstruction,
    profile_signature,
    rational_concordance_verdict,
)
from .catalog import UnknownKnot, load_catalog
from .legendrian import (
    SATELLITE_FORMULA_CITATION,
    FrontError,
    HypothesisNotMet,
    satellite_genus_pipeline,
    satellite_invariants,
)
from .seifert import levine_tristram, RootOfUnity
from .surgery import (
    ClassMismatch,
    cobordism_meridian_check,
    satellite_cobordism_presentation,
)


class BadFlag(ValueError):
    """A flag value is out of range or malformed."""


# The largest degree of a polynomial a command may build: deg(delta) * p
# for a (p,1)-cable, k_max * (deg(delta_0) + deg(delta_1)) for the
# Fox-Milnor loop.  On a 2-vCPU VM the slowest catalog form at this
# bound, the 3-twist knot alone at k_max 36, takes 0.15-0.2 s in a fresh
# process (best of three); at degree 96 (k_max 48) it takes about 0.3 s.
# Factoring refuses, also with exit code 2, a polynomial whose
# recombination needs more than intfactor.MAX_MODULAR_FACTORS factors.
MAX_DEGREE = 72


def _plain(value):
    """Deterministic JSON-ready form of any report value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def _obstruction_dict(command, report):
    return {
        "command": command,
        "verdict": report.verdict,
        "category": report.category,
        "witnesses": [
            {"kind": w.kind, "data": _plain(w.data)} for w in report.witnesses
        ],
        "parameters": _plain(report.parameters),
        "notes": list(report.notes),
    }


def _invariants_dict(inv):
    out = {"tb": inv.tb, "rot": inv.rot}
    if inv.writhe is not None:
        out.update(
            writhe=inv.writhe,
            cusps=inv.cusps,
            down_left_cusps=inv.down_left_cusps,
            up_right_cusps=inv.up_right_cusps,
        )
    return out


def _group_dict(group):
    return {
        "group": group.describe(),
        "rank": group.rank,
        "torsion": list(group.torsion),
        "images": {label: list(v) for label, v in sorted(group.images.items())},
    }


def _parse_omega(text):
    match = re.fullmatch(r"\s*(-?\d+)\s*/\s*(\d+)\s*", text)
    if not match:
        raise BadFlag(f"--omega takes a fraction a/b of a full turn, got {text!r}")
    try:
        return RootOfUnity(int(match.group(1)), int(match.group(2)))
    except ValueError as exc:
        raise BadFlag(f"--omega: {exc}") from None


def _positive(name, value, minimum):
    if value < minimum:
        raise BadFlag(f"{name} must be >= {minimum}, got {value}")
    return value


def _bounded(what, degree):
    if degree > MAX_DEGREE:
        raise BadFlag(f"{what} would have degree {degree}, above {MAX_DEGREE}")


def _degree(*profiles):
    return sum(K.alexander.span() for K in profiles if K.alexander is not None)


def _cmd_signature(catalog, args):
    K = catalog.profile(args.knot)
    if K.seifert is None:
        raise MissingSeifert(f"{K.name!r} has no Seifert matrix in the catalog")
    omega = _parse_omega(args.omega)
    return {
        "command": "signature",
        "knot": K.name,
        "omega": str(omega),
        "signature": levine_tristram(K.seifert, omega),
    }


def _cmd_alexander(catalog, args):
    K = catalog.profile(args.knot)
    if K.alexander is None:
        raise MissingAlexander(f"{K.name!r} has no Alexander polynomial")
    return {
        "command": "alexander",
        "knot": K.name,
        "alexander": str(K.alexander),
        "normalization": "balanced; defined up to multiplication by -1 and t^g",
    }


def _cmd_sigfn(catalog, args):
    K = catalog.profile(args.knot)
    sig = profile_signature(K)
    return {
        "command": "sigfn",
        "knot": K.name,
        "alexander": str(K.alexander),
        "identically_zero": sig.is_identically_zero(),
        "jumps": [
            {"angle": angle, "height": height} for angle, height in sig.jumps()
        ],
        "arcs": [
            {"from": lo, "to": hi, "signature": value}
            for lo, hi, value in sig.arcs()
        ],
    }


def _cmd_cable_obstruction(catalog, args):
    K = catalog.profile(args.knot)
    _positive("--p", args.p, 2)
    _positive("--angle-denominator-bound", args.angle_denominator_bound, 2)
    _bounded("the cable's Alexander polynomial", _degree(K) * args.p)
    report = finite_order_obstruction(
        K, args.p, denominator_bound=args.angle_denominator_bound
    )
    return _obstruction_dict("cable-obstruction", report)


def _pair(catalog, args):
    """The two knots of a pair command, once --k-max is checked and the
    last Fox-Milnor product bounded: a --cable's delta(t^p), of degree
    p * deg(delta), is built only then."""
    K0 = catalog.profile(args.knot0)
    if args.cable is None:
        K1 = catalog.profile("unknot" if args.knot1 is None else args.knot1)
        degree = _degree(K0, K1)
    else:
        if args.knot1 is not None:
            raise BadFlag("give either a second knot or --cable, not both")
        _positive("--cable", args.cable, 1)
        K1, degree = None, _degree(K0) * (1 + args.cable)
    _positive("--k-max", args.k_max, 1)
    _bounded("the last Fox-Milnor product", args.k_max * degree)
    return K0, cable_profile(K0, args.cable) if K1 is None else K1


def _cmd_fox_milnor(catalog, args):
    K0, K1 = _pair(catalog, args)
    report = fox_milnor_obstruction(K0, K1, k_max=args.k_max)
    return _obstruction_dict("fox-milnor", report)


def _cmd_verdict(catalog, args):
    K0, K1 = _pair(catalog, args)
    _positive("--angle-denominator-bound", args.angle_denominator_bound, 2)
    report = rational_concordance_verdict(
        K0,
        K1,
        k_max=args.k_max,
        denominator_bound=args.angle_denominator_bound,
    )
    return _obstruction_dict("verdict", report)


def _cmd_legendrian_invariants(catalog, args):
    front = catalog.front(args.front)
    report = {
        "command": "legendrian invariants",
        "front": args.front,
        **_invariants_dict(front.invariants()),
    }
    if front.seam_strands:
        report["winding"] = front.winding()
    return report


def _companion_front(catalog, name):
    front = catalog.front(name)
    if front.seam_strands:  # an annular front is a pattern, never a companion
        raise FrontError("companion must be a closed front")
    return front


def _cmd_legendrian_satellite(catalog, args):
    pattern = catalog.pattern(args.pattern)
    inv = _companion_front(catalog, args.companion).invariants()
    sat = satellite_invariants(pattern, inv)
    return {
        "command": "legendrian satellite",
        "pattern": pattern.name,
        "winding": pattern.winding,
        "companion": args.companion,
        "companion_invariants": _invariants_dict(inv),
        "satellite": _invariants_dict(sat),
        "citation": SATELLITE_FORMULA_CITATION,
    }


def _cmd_theorem31(catalog, args):
    profile = catalog.profile(args.knot)
    pattern = catalog.pattern(args.pattern)
    result = satellite_genus_pipeline(profile, catalog.entry(args.knot).fronts, pattern)
    return {
        "command": "theorem31",
        "companion": result.companion,
        "genus": result.genus,
        "pattern": pattern.name,
        "realization": {"front": result.front, **_invariants_dict(result.realization)},
        "stabilized": _invariants_dict(result.stabilized),
        "satellite": _invariants_dict(result.satellite),
        "bounds": {
            "g4_lower": result.bounds.g4_lower,
            "tau_lower": str(result.bounds.tau_lower),
            "s_lower": result.bounds.s_lower,
        },
        "conclusions": list(result.conclusions),
    }


def _cmd_homology_check(catalog, args):
    _positive("--p", args.p, 1)
    if args.presentation is not None:
        pres = catalog.presentation(args.presentation)
        name = args.presentation
    else:
        pres = satellite_cobordism_presentation(args.p)
        name = pres.name
    result = cobordism_meridian_check(pres, "mu_K", "mu_Ptilde", args.p)
    return {
        "command": "homology-check",
        "presentation": name,
        "p": result.p,
        "classes": [result.class0, result.class1],
        "homology": _group_dict(result.homology),
        "localized": _group_dict(result.localized),
        "notes": list(result.notes),
    }


def _scalar(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _flatten(value, key, out):
    if isinstance(value, dict):
        if not value:
            out.append((key, "-"))
        for sub, item in value.items():
            _flatten(item, f"{key}.{sub}" if key else str(sub), out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append((key, "-"))
        elif all(not isinstance(x, (dict, list, tuple)) for x in value):
            out.append((key, ", ".join(_scalar(x) for x in value)))
        else:
            for i, item in enumerate(value):
                _flatten(item, f"{key}[{i}]", out)
    else:
        out.append((key, _scalar(value)))


def render(report, output):
    if output == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    rows = []
    _flatten(report, "", rows)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="concordance",
        description="Exact knot concordance obstruction reports.",
    )
    parser.add_argument(
        "--catalog",
        help="catalog JSON path (default: CONCORDANCE_CATALOG or bundled)",
    )
    parser.add_argument(
        "--output", choices=("table", "json"), default="table",
        help="report format (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="Levine-Tristram signature at a root of unity")
    p.add_argument("knot")
    p.add_argument("--omega", required=True, metavar="A/B",
                   help="angle as a fraction of a full turn")
    p.set_defaults(handler=_cmd_signature)

    p = sub.add_parser("alexander", help="Alexander polynomial from the Seifert matrix")
    p.add_argument("knot")
    p.set_defaults(handler=_cmd_alexander)

    p = sub.add_parser("sigfn", help="full signature step function")
    p.add_argument("knot")
    p.set_defaults(handler=_cmd_sigfn)

    p = sub.add_parser(
        "cable-obstruction",
        help="search for omega with sigma(omega) = 0 but sigma(omega^p) != 0",
    )
    p.add_argument("knot")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--angle-denominator-bound", type=int, default=DENOMINATOR_BOUND)
    p.set_defaults(handler=_cmd_cable_obstruction)

    p = sub.add_parser("fox-milnor", help="norm test on the Alexander polynomials")
    p.add_argument("knot0")
    p.add_argument("knot1", nargs="?")
    p.add_argument("--cable", type=int, metavar="P",
                   help="test knot0 against its (P,1)-cable")
    p.add_argument("--k-max", type=int, default=K_MAX)
    p.set_defaults(handler=_cmd_fox_milnor)

    p = sub.add_parser("legendrian", help="front diagram invariants")
    leg = p.add_subparsers(dest="legendrian_command", required=True)
    q = leg.add_parser("invariants", help="tb, rot, and cusp counts of a stored front")
    q.add_argument("front")
    q.set_defaults(handler=_cmd_legendrian_invariants)
    q = leg.add_parser("satellite", help="satellite tb and rot by the cabling formulas")
    q.add_argument("pattern")
    q.add_argument("companion", help="name of the companion's stored front")
    q.set_defaults(handler=_cmd_legendrian_satellite)

    p = sub.add_parser(
        "theorem31",
        help="stabilize, form the satellite, and bound g4, tau, s from below",
    )
    p.add_argument("knot")
    p.add_argument("--pattern", default="paper-pattern-P")
    p.set_defaults(handler=_cmd_theorem31)

    p = sub.add_parser(
        "homology-check",
        help="meridian condition for the satellite cobordism presentation",
    )
    p.add_argument("presentation", nargs="?",
                   help="stored presentation (default: built for --p)")
    p.add_argument("--p", type=int, default=2)
    p.set_defaults(handler=_cmd_homology_check)

    p = sub.add_parser("verdict", help="aggregate rational concordance obstructions")
    p.add_argument("knot0")
    p.add_argument("knot1", nargs="?")
    p.add_argument("--cable", type=int, metavar="P",
                   help="compare knot0 against its (P,1)-cable")
    p.add_argument("--k-max", type=int, default=K_MAX)
    p.add_argument("--angle-denominator-bound", type=int, default=DENOMINATOR_BOUND)
    p.set_defaults(handler=_cmd_verdict)

    return parser


# the inputs an internal-error line names after its subcommand
_CONTEXT = ("knot", "knot0", "knot1", "front", "pattern", "companion",
            "presentation", "omega", "p", "cable")


def _context(args):
    """The subcommand and its inputs, as ``fox-milnor knot0=K cable=2``."""
    words = [args.command]
    if args.command == "legendrian":
        words.append(args.legendrian_command)
    for name in _CONTEXT:
        value = getattr(args, name, None)
        if value is not None:
            words.append(f"{name}={value}")
    return " ".join(words)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        catalog = load_catalog(args.catalog)
        text = render(args.handler(catalog, args), args.output)
    except (HypothesisNotMet, ClassMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownKnot, ValueError) as exc:
        # BadFlag, catalog Parse/Validation errors, and every library
        # precondition failure count as input errors at this boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(
            f"internal error in {_context(args)}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
