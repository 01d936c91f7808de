"""Run one ``concordance`` subcommand, as the installed entry point would.

    python3 perfbench/cli_child.py [--spawned-at T] [--trace-to FILE] -- ARGS...

With ``--trace-to`` it splits the cold start into interpreter start (from
the parent's ``time.monotonic()`` value T to this script's first line),
imports and dispatch, traces the library calls, and writes the split and
the per-layer counters to FILE as JSON.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    trace_to = opts[opts.index("--trace-to") + 1] if "--trace-to" in opts else None
    spawned_at = float(opts[opts.index("--spawned-at") + 1]) if "--spawned-at" in opts else STARTED

    t0 = time.monotonic()
    import concordance
    from concordance import cli
    t1 = time.monotonic()
    tracer = None
    if trace_to:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(concordance)
    try:
        code = cli.main(argv)
    finally:
        t2 = time.monotonic()
        if tracer is not None:
            with open(trace_to, "w") as out:
                json.dump({
                    "process_start_s": STARTED - spawned_at,
                    "import_s": t1 - t0,
                    "dispatch_s": t2 - t1,
                    **tracer.summary(),
                }, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
