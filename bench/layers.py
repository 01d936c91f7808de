"""Time library layers one at a time, on inputs of growing size.

    python3 bench/layers.py --out BENCH_<n>.json [--sizes 12 24 36 48]

Run from anywhere; the library is imported from the `src/` beside this
directory, and the inputs come from `perfbench/families.py` (imported
from `perfbench/`, not changed).  The surgery layers take COUNT
presentations of each size, drawn from a fresh `random.Random(SEED)`.
The front sweep, `satellite_front` of the bundled RH trefoil front
followed by `invariants()`, takes the twist pattern on n strands
(`pattern_events`); the cable layer, `cable_front` of the bundled
satellite-P-of-trefoil front followed by `component_count`, takes n
itself; each is timed COUNT times over.  The signature layers
(`alexander`, `levine_tristram` at omega = exp(2 pi i 5/1260),
`signature_function`) take COUNT scrambled sums of genus g
(`random_knot`), drawn from a fresh `random.Random(SEED)`; each call
builds a fresh `SeifertMatrix`, whose constructor computes delta with
its det(V - V^T) check from one determinant, so `alexander` times the
constructor.
The polynomial layers take delta of the same knots, computed before
timing: `factor` takes delta(t^6), and `isolate_roots` takes the trace
polynomial of delta (`cyclotomic.trace_polynomial`) on (-2, 2), as a
signature function does.  The cyclotomic layer builds Phi_b at b = 210,
420, 1260 and 2310, COUNT times each, with the cache of
`cyclotomic_coeffs` emptied inside each timed call, so that no Phi_d
comes from an earlier call.  The library keeps Fox-Milnor pairings,
factorizations, the circle roots and arc samples of each Alexander
polynomial, the cosine enclosure of each angle and precision, the
cable templates of each n, and each cable and satellite front with its
invariants, per process, so every bounded cache is emptied before every
timed call: `factor` is timed factoring, `levine_tristram` and
`signature_function` are timed isolating roots (and `levine_tristram`
enclosing cosines), and the front layers building their templates and
fronts and sweeping them, not looking up.  The two Fox-Milnor layers take each
knot of the same family, as a profile with delta alone, against its
(2,1)-cable, up to k = FOX_MILNOR_K_MAX.  The cold one,
`cabling.fox_milnor_obstruction.cold`, empties the caches before each
call like the others, so it times what a first query pays: the
factoring, merging, multiply-back and witness checks of each k.  The
one warm layer (`WARM`), `cabling.fox_milnor_obstruction`, fills the
caches with one untimed call per input and empties none, so it times
what a repeated query costs, as perfbench's cable-obstruct runs them:
since the pairings are kept per (delta_0, delta_1, k), that is one
cache lookup per k and the report around them.  Each input
is timed REPEAT times and its fastest kept; the repeats go round-robin over a layer's
inputs at a size, so a slow stretch of the host falls on one repeat of
several inputs, not on every repeat of one.  A layer's figure at a size
is the median over its inputs, in milliseconds.
The host's pace is measured beside the work, as `perfbench/pace.py`
measures it for the end-to-end metrics: its fixed reference computation
(`pace.reference`) runs once before a layer's first round at a size and
once after each round.  A layer's scaled figure is its median brought to
the nominal pace by `pace.scale`, with the median of those references;
the raw medians stay under `layers`, comparable with earlier files, the
scaled ones are under `layers_scaled`, and `reference_ms` is the median
of every reference of the run (`reference_nominal_ms` is the nominal).
The script first pins its own process to one CPU, as the perfbench worker
does (`worker.pin_to_one_cpu`), so that the references and the layers run
on the same CPU; `machine.cpus_used` names the CPUs it ran on.
The `cold_start` layer times fresh interpreters on a copy of the
package without bytecode, as a user's first run compiles it: `import
concordance`, and each subcommand form of the README (read from
`tests/data/readme_forms.json`, text output), each run COLD_RUNS
times, round-robin over the forms; its figure for a form is the median
wall time from spawn to exit, in milliseconds, and its scaled figure is
brought to the nominal pace with `pace.START_SENSITIVITY`, as perfbench
scales its CLI operations.  Its last two forms run `import concordance`
under `python -S`, once on the copy without bytecode and once on a
second copy compiled by `compileall`: with site-packages off, no `.pth`
file can load a standard-library module before the package does, so
these two rows show what the package's own imports cost on a plain
interpreter.
Each layer has its own default sizes (`--sizes` sets them for every
layer but `cold_start`, whose sizes are its forms).  The JSON holds the machine, the Python version, the git commit
(and whether `src/` differs from it), the inputs, the medians keyed by
layer name, and the line count of `src/concordance/*.py`.  Standard
library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
COUNT = 15
SEED = 1
REPEAT = 3
COLD_RUNS = 9
FOX_MILNOR_K_MAX = 6
WARM = {"cabling.fox_milnor_obstruction"}
CLI = "import sys\nfrom concordance import cli\nsys.exit(cli.main(sys.argv[1:]))"

sys.path.insert(0, str(SRC))
sys.path.append(str(ROOT / "perfbench"))

import families  # noqa: E402
import pace  # noqa: E402
from worker import pin_to_one_cpu  # noqa: E402

from concordance.cabling import KnotProfile, cable_profile, fox_milnor_obstruction  # noqa: E402
from concordance.catalog import load_catalog  # noqa: E402
from concordance.cyclotomic import cyclotomic_coeffs, trace_polynomial  # noqa: E402
from concordance.laurent import clear_caches, factor  # noqa: E402
from concordance.legendrian import FrontDiagram, cable_front, satellite_front  # noqa: E402
from concordance.seifert import (  # noqa: E402
    RootOfUnity,
    SeifertMatrix,
    alexander,
    levine_tristram,
    signature_function,
)
from concordance.realroots import isolate_roots  # noqa: E402
from concordance.surgery import SurgeryPresentation, first_homology, smith_normal_form  # noqa: E402


def best_ms(fn, args, warm=False):
    """Each input's fastest of REPEAT calls, in milliseconds, each call
    on empty caches or, when `warm`, on the caches that one untimed call
    per input filled; round r calls every input once before
    round r + 1 begins.  Also the reference's seconds, timed once before
    the first round and once after each."""
    best = [float("inf")] * len(args)
    if warm:
        for arg in args:
            fn(arg)
    references = [pace.reference()]
    for _ in range(REPEAT):
        for i, arg in enumerate(args):
            if not warm:
                clear_caches()
            start = time.perf_counter()
            fn(arg)
            best[i] = min(best[i], time.perf_counter() - start)
        references.append(pace.reference())
    return [1000 * t for t in best], references


def layers():
    """Layer name -> (function, its inputs at one size, default sizes,
    where the inputs come from)."""
    catalog = load_catalog()
    trefoil = catalog.front("legendrian-RH-trefoil")
    satellite = catalog.front("satellite-P-of-trefoil")

    def presentations(size):
        rng = random.Random(SEED)
        return [families.random_presentation(rng, size) for _ in range(COUNT)]

    def knots(genus):
        rng = random.Random(SEED)
        return [families.random_knot(rng, genus).seifert() for _ in range(COUNT)]

    def deltas(genus):
        return [alexander(SeifertMatrix(matrix)) for matrix in knots(genus)]

    def coefficients(delta):
        """delta's coefficients from its lowest exponent up, read through
        items() alone, so that the inputs are the same on older trees."""
        terms = dict(delta.items())
        return [terms.get(e, 0) for e in range(delta.low(), delta.high() + 1)]

    def cables(genus):
        """(K, its (2,1)-cable) per knot, K a profile with delta alone."""
        profiles = [KnotProfile(f"K{i}", alexander=delta) for i, delta in enumerate(deltas(genus))]
        return [(K, cable_profile(K, 2)) for K in profiles]

    def fresh(fn):
        """fn on a new SeifertMatrix per call: delta is computed when the
        matrix is built and kept on it."""
        return lambda matrix: fn(SeifertMatrix(matrix))

    omega = RootOfUnity(5, 1260)
    signature_layers = {
        "seifert.alexander": alexander,
        "seifert.levine_tristram": lambda v: levine_tristram(v, omega),
        "seifert.signature_function": signature_function,
    }

    def front_sweep(pattern):
        return satellite_front(trefoil, pattern).invariants()

    def cable_sweep(n):
        return cable_front(satellite, n).component_count

    def fox_milnor(pair):
        return fox_milnor_obstruction(*pair, k_max=FOX_MILNOR_K_MAX)

    def cold_phi(b):
        cyclotomic_coeffs.cache_clear()
        return cyclotomic_coeffs(b)

    surgery_sizes = [12, 24, 36, 48]
    return {
        "surgery.smith_normal_form": (
            smith_normal_form,
            lambda size: [p.matrix for p in presentations(size)],
            surgery_sizes,
            "perfbench/families.random_presentation",
        ),
        "surgery.first_homology": (
            first_homology,
            lambda size: [SurgeryPresentation(p.matrix, p.classes) for p in presentations(size)],
            surgery_sizes,
            "perfbench/families.random_presentation",
        ),
        "legendrian.front_sweep": (
            front_sweep,
            lambda n: [FrontDiagram(families.pattern_events(n), seam_strands=n)] * COUNT,
            list(range(2, 15)),
            "perfbench/families.pattern_events on the legendrian-RH-trefoil front",
        ),
        "legendrian.cable_front": (
            cable_sweep,
            lambda n: [n] * COUNT,
            list(range(2, 15)),
            "n-copy cables of the satellite-P-of-trefoil front",
        ),
        **{
            name: (fresh(fn), knots, list(range(1, 9)), "perfbench/families.random_knot")
            for name, fn in signature_layers.items()
        },
        "laurent.factor": (
            factor,
            lambda genus: [delta.substitute_power(6) for delta in deltas(genus)],
            list(range(1, 9)),
            "delta(t^6) of perfbench/families.random_knot",
        ),
        "cyclotomic.cyclotomic_coeffs": (
            cold_phi,
            lambda b: [b] * COUNT,
            [210, 420, 1260, 2310],
            "Phi_b, its cache cleared before each call",
        ),
        "cabling.fox_milnor_obstruction": (
            fox_milnor,
            cables,
            list(range(1, 9)),
            "delta of perfbench/families.random_knot against its (2,1)-cable, warm caches: one Fox-Milnor cache lookup per k",
        ),
        "cabling.fox_milnor_obstruction.cold": (
            fox_milnor,
            cables,
            list(range(1, 9)),
            "delta of perfbench/families.random_knot against its (2,1)-cable, caches emptied before each call",
        ),
        "realroots.isolate_roots": (
            lambda g: isolate_roots(g, Fraction(-2), Fraction(2)),
            lambda genus: [trace_polynomial(coefficients(delta)) for delta in deltas(genus)],
            list(range(1, 9)),
            "trace polynomial of delta of perfbench/families.random_knot",
        ),
    }


def cold_forms():
    """(name, interpreter arguments, copy) of each cold start: `import
    concordance`, the README's subcommand forms with text output, then
    `import concordance` under `python -S` on the copy without bytecode
    and on the compiled one."""
    recorded = json.loads((ROOT / "tests" / "data" / "readme_forms.json").read_text())
    forms = [entry["argv"] for entry in recorded if entry["argv"][0] != "--output"]
    return [("import concordance", ["-c", "import concordance"], "plain")] + [
        (" ".join(argv), ["-c", CLI, *argv], "plain") for argv in forms
    ] + [
        ("python -S: import concordance", ["-S", "-c", "import concordance"], "plain"),
        ("python -S, bytecode: import concordance", ["-S", "-c", "import concordance"], "compiled"),
    ]


def cold_ms():
    """Each cold start's median over COLD_RUNS fresh interpreters, in
    milliseconds, on a copy of the package without bytecode (`plain`) or
    a second copy compiled by `compileall` (`compiled`); round r runs
    every form once before round r + 1 begins.  Also the reference's
    seconds, timed once before the first round and once after each."""
    forms = cold_forms()
    times = {name: [] for name, _, _ in forms}
    references = [pace.reference()]
    with tempfile.TemporaryDirectory() as tmp:
        for copy in ("plain", "compiled"):
            shutil.copytree(SRC / "concordance", Path(tmp, copy, "concordance"), ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(Path(tmp, "compiled"), quiet=1)
        for _ in range(COLD_RUNS):
            for name, args, copy in forms:
                env = dict(os.environ, PYTHONPATH=str(Path(tmp, copy)), PYTHONDONTWRITEBYTECODE="1")
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], cwd=tmp, env=env, stdout=subprocess.DEVNULL, check=True)
                times[name].append(time.perf_counter() - start)
            references.append(pace.reference())
    return {name: 1000 * statistics.median(t) for name, t in times.items()}, references


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(sizes=None):
    """The report; `sizes` replaces every layer's default sizes but
    those of `cold_start`, whose sizes are its forms."""
    medians, scaled, inputs, references = {}, {}, {}, []
    for name, (fn, make, default, family) in layers().items():
        layer_sizes = sizes or default
        medians[name], scaled[name] = {}, {}
        for size in layer_sizes:
            times, paces = best_ms(fn, make(size), name in WARM)
            median = statistics.median(times)
            medians[name][str(size)] = round(median, 4)
            scaled[name][str(size)] = round(pace.scale(median, statistics.median(paces)), 4)
            references += paces
        inputs[name] = {"family": family, "sizes": layer_sizes}
    cold, paces = cold_ms()
    medians["cold_start"] = {name: round(ms, 4) for name, ms in cold.items()}
    scaled["cold_start"] = {
        name: round(pace.scale(ms, statistics.median(paces), pace.START_SENSITIVITY), 4) for name, ms in cold.items()
    }
    references += paces
    inputs["cold_start"] = {
        "family": "import concordance and the README forms of tests/data/readme_forms.json, "
                  "fresh interpreters without bytecode; then import concordance under python -S, "
                  "without bytecode and with it",
        "sizes": list(cold),
        "runs": COLD_RUNS,
    }
    status = git("status", "--porcelain", "--", "src")
    return {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        },
        "python": platform.python_version(),
        "git_sha": git("rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else bool(status),
        "inputs": {"layers": inputs, "count": COUNT, "seed": SEED, "repeat": REPEAT},
        "unit": "ms",
        "layers": medians,
        "layers_scaled": scaled,
        "reference_ms": round(1000 * statistics.median(references), 4),
        "reference_nominal_ms": 1000 * pace.REFERENCE_S,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "concordance").glob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="where to write the JSON")
    parser.add_argument("--sizes", nargs="+", type=int,
                        help="sizes for every layer but cold_start (default: each layer's own)")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    report = measure(args.sizes)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, medians in report["layers"].items():
        print(name, " ".join(f"{size}:{ms}ms" for size, ms in medians.items()))


if __name__ == "__main__":
    main()
