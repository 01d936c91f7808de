"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: sigma-sweep,
cable-obstruct, cli-cold, diagram-homology (see workloads.py).

``--trace 0`` measures the end-to-end metrics: it times the set-up
(``import concordance`` plus ``load_catalog()``) in several fresh
interpreters and reports the median, then runs the workload in one more
fresh interpreter.  ``--trace 1`` runs the workload untraced, then replays
exactly the same operations with every layer traced, checks that both runs
give identical outcomes, and reports the per-layer metrics.

Output: run metadata, the failed operations by id and kind of failure, a
table of every metric with its unit, and as the last line one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0 when the
run completed; 2 when the checkout has no ``src/concordance`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
IMPORT_PROBES = 3

sys.path.insert(0, HERE)

from pace import REFERENCE_S, START_SENSITIVITY, paced, scale  # noqa: E402
from worker import child_env  # noqa: E402
from workloads import WORKLOADS, known_wrong  # noqa: E402


def python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=timeout, check=True)


def worker(args: list[str], timeout: float = 170.0) -> dict:
    proc = python([os.path.join(HERE, "worker.py"), *args], timeout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_tree(report: str) -> dict[str, tuple[float, dict[str, float]]]:
    """``-X importtime`` output as {module: (cumulative seconds,
    {module imported inside it: its cumulative seconds})}.  The report lists
    a module after everything it imported, indented one level deeper."""
    rows: dict = {}
    pending: list = []
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        name, cumulative = parts[2].strip(), int(parts[1]) / 1e6
        inside: dict = {}
        while pending and pending[-1][0] > depth:
            _, child, child_cumulative, child_inside = pending.pop()
            inside[child] = child_cumulative
            inside.update(child_inside)
        pending.append((depth, name, cumulative, inside))
        rows[name] = (cumulative, inside)
    return rows


def split_imports(report: str) -> dict[str, float]:
    """Import seconds by package.  laurent: concordance.laurent with all it
    imports (sympy) except mpmath; cyclotomic: concordance.cyclotomic with
    all it imports, plus mpmath, whichever module imports mpmath first."""
    rows = import_tree(report)
    mpmath = rows.get("mpmath", (0.0, {}))[0]
    out = {}
    for module in ("laurent", "cyclotomic"):
        cumulative, inside = rows[f"concordance.{module}"]
        out[module] = cumulative - inside.get("mpmath", 0.0) + (mpmath if module == "cyclotomic" else 0.0)
    return out


def import_times() -> dict[str, float]:
    """split_imports of ``import concordance``, medians of fresh interpreters."""
    probes = [split_imports(python(["-X", "importtime", "-c", "import concordance"], 60).stderr)
              for _ in range(IMPORT_PROBES)]
    return {m: statistics.median(p[m] for p in probes) for m in probes[0]}


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "none"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    return "unknown"


def src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "concordance")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                total += sum(1 for _ in f)
    return total


def print_metadata(args) -> None:
    versions = {}
    for dist in ("sympy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    print(f"meta workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"meta nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"sympy={versions['sympy']} mpmath={versions['mpmath']} "
          f"git={git_sha()} src_lines={src_lines()}")


def print_failures(outcomes) -> None:
    groups: dict[tuple, list[str]] = {}
    for op_id, kind, status, *_ in outcomes:
        if status != "ok":
            if status == "wrong" and known_wrong(op_id):
                status = "wrong(known)"
            groups.setdefault((kind, status), []).append(op_id)
    for (kind, status), ids in sorted(groups.items()):
        print(f"failed {kind} {status} x{len(ids)}: {' '.join(ids)}")


def tail_percentile(n: int) -> int:
    """The highest percentile with at least 10 of n samples beyond it."""
    return max(1, 100 * (n - 10) // n)


def op_times(outcomes, at_pace: bool) -> list[float]:
    """Operation seconds, scaled to the host's nominal pace or raw.  A
    deadline miss keeps its wall time: the caller waited out the deadline
    whatever the pace."""
    times = [o[4] for o in outcomes]
    if not at_pace:
        return times
    sensitivity = START_SENSITIVITY if outcomes[0][1] == "cli" else 1.0
    scaled = paced(times, [o[5] for o in outcomes], sensitivity)
    return [t if o[2] == "deadline" else s for o, t, s in zip(outcomes, times, scaled)]


def end_to_end(setup_samples, outcomes, peak_rss_mb, at_pace: bool) -> dict:
    """The end-to-end metrics from [(set-up seconds, reference seconds)] and
    the outcomes; with ``at_pace``, every time is scaled to the host's
    nominal pace (pace.py), else raw wall time."""
    setup_samples = [scale(s, r, START_SENSITIVITY) if at_pace else s for s, r in setup_samples]
    times = op_times(outcomes, at_pace)
    ok = sum(1 for o in outcomes if o[2] == "ok")
    return {
        "setup_s": statistics.median(setup_samples),
        "ok_ops_per_s": ok / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_tail_ms": percentile(times, tail_percentile(len(times))) * 1000,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(names, untraced, traced, imports) -> dict:
    from tracer import merge_stats

    trace = traced["trace"]
    stats: dict = {}
    merge_stats(stats, trace["stats"])
    angles = trace["scan_angles"]
    children = traced.get("cli_children", [])
    for child in children:
        merge_stats(stats, child["stats"])
        angles += child["scan_angles"]
    queries = sum(stats.get(f"cabling.{f}", {}).get("calls", 0)
                  for f in ("finite_order_obstruction", "rational_concordance_verdict"))
    a = [(o[0], o[2], o[3]) for o in untraced["outcomes"]]
    b = [(o[0], o[2], o[3]) for o in traced["outcomes"]]
    special = {
        "laurent.import_s": imports["laurent"],
        "cyclotomic.import_s": imports["cyclotomic"],
        "cabling.angles_per_query": angles / queries if queries else 0,
        "trace.overhead_ratio": sum(op_times(traced["outcomes"], True)) / sum(op_times(untraced["outcomes"], True)),
        "trace.outcome_mismatches": sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)),
        "trace.spans": trace["spans"] + sum(c["spans"] for c in children),
        "run.fail_ratio": sum(1 for o in untraced["outcomes"] if o[2] != "ok") / len(a),
    }
    for key in ("process_start_s", "import_s", "dispatch_s"):
        special[f"cli.{key}"] = statistics.median([c[key] for c in children]) if children else 0
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = stats.get(span, {}).get(stat, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "concordance", "__init__.py")):
        print(f"error: no src/concordance under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    print_metadata(args)

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out-dir", OUT]
    started = time.perf_counter()
    if args.trace == 0:
        probes = [worker(["--probe"], 60) for _ in range(SETUP_PROBES)]
        result = worker(base)
        probes.append(result)
        outcomes = result["outcomes"]
        setup = [(p["setup_s"], p["setup_ref_s"]) for p in probes]
        wall = end_to_end(setup, outcomes, result["peak_rss_mb"], at_pace=False)
        metrics = end_to_end(setup, outcomes, result["peak_rss_mb"], at_pace=True)
        listed = spec["end_to_end"]
        print(f"info fail_ratio={sum(o[2] != 'ok' for o in outcomes) / len(outcomes):.4f} "
              f"op_tail_ms=p{tail_percentile(len(outcomes))} of {len(outcomes)} operations")
        print("info unscaled " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
        print(f"info pace reference_ms median={statistics.median(o[5] for o in outcomes) * 1000:.4g} "
              f"nominal={REFERENCE_S * 1000:.4g}")
        mismatches = 0
    else:
        untraced = worker(base)
        outcomes = untraced["outcomes"]
        traced = worker(base + ["--trace", "--max-ops", str(len(outcomes))])
        listed = spec["per_layer"]
        metrics = per_layer([m["name"] for m in listed], untraced, traced, import_times())
        mismatches = metrics.get("trace.outcome_mismatches", 0)
    print_failures(outcomes)
    units = {m["name"]: m["unit"] for m in listed}
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(f"info attempted={len(outcomes)} wall_s={time.perf_counter() - started:.1f}")
    wrong = sum(1 for o in outcomes if o[2] == "wrong" and not known_wrong(o[0]))
    print(json.dumps({
        "correct": wrong == 0 and mismatches == 0,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o[2] != "ok"),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
