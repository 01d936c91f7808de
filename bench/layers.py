"""Time library layers one at a time, on inputs of growing size.

    python3 bench/layers.py --out BENCH_<n>.json [--sizes 12 24 36 48]

Run from anywhere; the library is imported from the `src/` beside this
directory, and the inputs come from `perfbench/families.py` (loaded by
path, not changed).  For each size, COUNT presentations are drawn from
a fresh `random.Random(SEED)`; each call is timed REPEAT times and
the fastest kept, and a layer's figure at that size is the median over
the presentations, in milliseconds.  The JSON holds the machine, the
Python version, the git commit (and whether `src/` differs from it), the
medians keyed by layer name, and the line count of `src/concordance/*.py`.
Standard library only.
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

from concordance.surgery import SurgeryPresentation, first_homology, smith_normal_form  # noqa: E402


def load_families():
    path = ROOT / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def best_ms(fn, arg):
    """Fastest of REPEAT calls, in milliseconds."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return 1000 * min(times)


# layer name -> (function, how it reads a families.Presentation)
LAYERS = {
    "surgery.smith_normal_form": (smith_normal_form, lambda p: p.matrix),
    "surgery.first_homology": (first_homology, lambda p: SurgeryPresentation(p.matrix, p.classes)),
}


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(sizes):
    families = load_families()
    layers = {name: {} for name in LAYERS}
    for size in sizes:
        rng = random.Random(SEED)
        inputs = [families.random_presentation(rng, size) for _ in range(COUNT)]
        for name, (fn, read) in LAYERS.items():
            args = [read(p) for p in inputs]
            layers[name][str(size)] = round(statistics.median(best_ms(fn, a) for a in args), 4)
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
        "inputs": {"family": "perfbench/families.random_presentation", "sizes": sizes,
                   "count": COUNT, "seed": SEED, "repeat": REPEAT},
        "unit": "ms",
        "layers": layers,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "concordance").glob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="where to write the JSON")
    parser.add_argument("--sizes", nargs="+", type=int, default=[12, 24, 36, 48])
    args = parser.parse_args(argv)
    report = measure(args.sizes)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, medians in report["layers"].items():
        print(name, " ".join(f"{size}:{ms}ms" for size, ms in medians.items()))


if __name__ == "__main__":
    main()
