"""One workload in a fresh interpreter: a closed loop with one caller.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--max-ops N]
    python3 perfbench/worker.py --probe

The worker times its own set-up (``import concordance`` plus
``load_catalog()``), then runs the workload's operations one after
another, each under its deadline: the number of whole cycles the workload
does in ``--seconds`` at its nominal pace, so every run does the same work,
or, with ``--max-ops``, exactly that many operations.  Every answer is
checked against its oracle outside the timed region, and only the
operations themselves count as the timed phase.  After every operation,
and around the set-up, the host's pace is sampled (pace.py); the worker
keeps itself on one CPU so that the samples come from where the work
ran.  The result goes to stdout as one JSON object.  ``--probe`` only
times the set-up, with its pace, and prints it.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pace import sample, setup_pace  # noqa: E402
from workloads import KINDS, Deadline, cycles, operations  # noqa: E402


def child_env() -> dict:
    """The environment of a child interpreter: the library from ``src/``."""
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def set_up():
    """Import the library and load the bundled catalog; (seconds, lib, catalog)."""
    t0 = time.perf_counter()
    import concordance

    catalog = concordance.load_catalog()
    return time.perf_counter() - t0, concordance, catalog


def paced_set_up():
    """set_up with the pace around it: (seconds, reference seconds, lib,
    catalog), the reference time the mean of the paces just before and
    just after."""
    before = setup_pace()
    setup_s, lib, catalog = set_up()
    return setup_s, (before + setup_pace()) / 2, lib, catalog


class Context:
    """What operations need: the library, the catalog, and for cli-cold the
    child environment and where traced children write their counters."""

    def __init__(self, lib, catalog, cli_trace_dir=None):
        self.lib = lib
        self.catalog = catalog
        self.root = ROOT
        self.bench_dir = HERE
        self.child_env = child_env()
        self.cli_trace_dir = cli_trace_dir


def _on_alarm(signum, frame):
    raise Deadline()


def run_operations(ctx, workload, seed, seconds, max_ops=None, tracer=None):
    """Run the closed loop; returns [(id, kind, status, digest, seconds,
    reference seconds)], the last timed right after the operation (see
    pace.py).  A run that takes four times its length stops at the next
    cycle end."""
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    loop_start = time.perf_counter()
    for done, cycle in enumerate(operations(workload, seed), start=1):
        for op in cycle:
            if max_ops is not None and len(outcomes) >= max_ops:
                return outcomes
            prep, run, check = KINDS[op.kind]
            prepared = prep(ctx, op) if prep else None
            if tracer is not None:
                tracer.reset_stack()
                tracer.paused = False
            status, answer = None, None
            timer = op.kind != "cli"  # a CLI child is killed at its deadline instead
            start = time.perf_counter()
            try:
                if timer:
                    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
                try:
                    answer = run(ctx, prepared, op)
                finally:
                    if timer:
                        signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                status = "deadline"
            except Exception as exc:
                status = f"raise:{type(exc).__name__}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.paused = True
            ref = sample(elapsed)
            digest = ""
            if status is None:
                try:
                    ok, digest = check(ctx, op, answer)
                    status = "ok" if ok else "wrong"
                except Exception as exc:  # an answer the checker cannot read is wrong
                    status, digest = "wrong", f"check raised {type(exc).__name__}"
            digest = hashlib.sha1(digest.encode()).hexdigest()[:12]
            outcomes.append((op.id, op.kind, status, digest, elapsed, ref))
        if max_ops is None and (done == cycles(workload, seconds)
                                or time.perf_counter() - loop_start > 4 * seconds):
            return outcomes
    return outcomes


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the pace
    references (pace.py) run where the operations run: on a shared host
    two CPUs can run at different paces at the same moment."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None):
    pin_to_one_cpu()
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out-dir")
    args = ap.parse_args(argv)

    if args.probe:
        setup_s, setup_ref_s, *_ = paced_set_up()
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    tracer = None
    if args.trace:
        import concordance
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(concordance)
    setup_s, setup_ref_s, lib, catalog = paced_set_up()
    cli_trace_dir = None
    if args.trace and args.workload == "cli-cold":
        cli_trace_dir = os.path.join(args.out_dir, f"cli-{args.seed}")
        os.makedirs(cli_trace_dir, exist_ok=True)
    ctx = Context(lib, catalog, cli_trace_dir)
    outcomes = run_operations(ctx, args.workload, args.seed, args.seconds, args.max_ops, tracer)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump(os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        if cli_trace_dir:
            result["cli_children"] = []
            for op_id, *_ in outcomes:
                path = os.path.join(cli_trace_dir, op_id + ".json")
                if os.path.exists(path):
                    with open(path) as f:
                        result["cli_children"].append(json.load(f))
                    os.remove(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
