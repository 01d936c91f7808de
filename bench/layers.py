"""Time library layers one at a time, on inputs of growing size.

    python3 bench/layers.py --out BENCH_<n>.json [--sizes 12 24 36 48]

Run from anywhere; the library is imported from the `src/` beside this
directory, and the inputs come from `perfbench/families.py` (loaded by
path, not changed).  The surgery layers take COUNT presentations of
each size, drawn from a fresh `random.Random(SEED)`.  The front sweep,
`satellite_front` of the bundled RH trefoil front followed by
`invariants()`, takes the twist pattern on n strands (`pattern_events`);
the cable layer, `cable_front` of the bundled satellite-P-of-trefoil
front followed by `component_count`, takes n itself; each is timed COUNT
times over.  The signature layers (`alexander`, `levine_tristram` at
omega = exp(2 pi i 5/1260), `signature_function`) take COUNT scrambled
sums of genus g (`random_knot`), drawn from a fresh `random.Random(SEED)`;
each call builds a fresh `SeifertMatrix`, since delta is cached on the
matrix.  Each input is timed REPEAT times and its fastest kept; the
repeats go round-robin over a layer's inputs at a size, so a slow
stretch of the host falls on one repeat of several inputs, not on every
repeat of one.  A layer's figure at a size is the median over its
inputs, in milliseconds.
Each layer has its own default sizes (`--sizes` sets them for every
layer).  The JSON holds the machine, the Python version, the git commit
(and whether `src/` differs from it), the inputs, the medians keyed by
layer name, and the line count of `src/concordance/*.py`.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
COUNT = 15
SEED = 1
REPEAT = 3

sys.path.insert(0, str(SRC))

from concordance.catalog import load_catalog  # noqa: E402
from concordance.legendrian import FrontDiagram, cable_front, satellite_front  # noqa: E402
from concordance.seifert import (  # noqa: E402
    RootOfUnity,
    SeifertMatrix,
    alexander,
    levine_tristram,
    signature_function,
)
from concordance.surgery import SurgeryPresentation, first_homology, smith_normal_form  # noqa: E402


def load_families():
    path = ROOT / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def best_ms(fn, args):
    """Each input's fastest of REPEAT calls, in milliseconds; round r
    calls every input once before round r + 1 begins."""
    best = [float("inf")] * len(args)
    for _ in range(REPEAT):
        for i, arg in enumerate(args):
            start = time.perf_counter()
            fn(arg)
            best[i] = min(best[i], time.perf_counter() - start)
    return [1000 * t for t in best]


def layers():
    """Layer name -> (function, its inputs at one size, default sizes,
    where the inputs come from)."""
    families = load_families()
    catalog = load_catalog()
    trefoil = catalog.front("legendrian-RH-trefoil")
    satellite = catalog.front("satellite-P-of-trefoil")

    def presentations(size):
        rng = random.Random(SEED)
        return [families.random_presentation(rng, size) for _ in range(COUNT)]

    def knots(genus):
        rng = random.Random(SEED)
        return [families.random_knot(rng, genus).seifert() for _ in range(COUNT)]

    def fresh(fn):
        """fn on a new SeifertMatrix per call: delta is cached on the matrix."""
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
    }


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(sizes=None):
    """The report; `sizes` replaces every layer's default sizes."""
    medians, inputs = {}, {}
    for name, (fn, make, default, family) in layers().items():
        layer_sizes = sizes or default
        medians[name] = {
            str(size): round(statistics.median(best_ms(fn, make(size))), 4)
            for size in layer_sizes
        }
        inputs[name] = {"family": family, "sizes": layer_sizes}
    status = git("status", "--porcelain", "--", "src")
    return {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "git_sha": git("rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else bool(status),
        "inputs": {"layers": inputs, "count": COUNT, "seed": SEED, "repeat": REPEAT},
        "unit": "ms",
        "layers": medians,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "concordance").glob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="where to write the JSON")
    parser.add_argument("--sizes", nargs="+", type=int,
                        help="sizes for every layer (default: each layer's own)")
    args = parser.parse_args(argv)
    report = measure(args.sizes)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, medians in report["layers"].items():
        print(name, " ".join(f"{size}:{ms}ms" for size, ms in medians.items()))


if __name__ == "__main__":
    main()
