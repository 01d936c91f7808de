"""Re-measure the hand-timed baseline listed in ROADMAP.md, side by side.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Each row is timed in this
interpreter (the CLI rows in fresh ones) with ``time.perf_counter``; cheap
rows report the best of three runs, heavy rows a single run, as the
ROADMAP figures were taken.  Takes about a minute on two cores.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import families as F  # noqa: E402
import run as bench  # noqa: E402

# (row, seconds in ROADMAP.md, repeats, what to time)
CLI_ROWS = [
    ("cli alexander RH-trefoil", 0.60, ["alexander", "RH-trefoil"]),
    ("cli theorem31 RH-trefoil", 0.48, ["theorem31", "RH-trefoil"]),
    ("cli fox-milnor 3-twist --cable 2 --k-max 12", 0.99,
     ["fox-milnor", "3-twist-negative-clasp", "--cable", "2", "--k-max", "12"]),
]


def best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def cli(argv):
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), "--", *argv]
    return lambda: subprocess.run(cmd, env=bench.child_env(), cwd=ROOT, check=True,
                                  stdout=subprocess.DEVNULL)


def main() -> int:
    import concordance as c

    trefoil = ("torus", 3, False)
    dense8 = F.scrambled(random.Random(0), [trefoil] * 8, density=4)
    ttt = c.SeifertMatrix(F.Knot((trefoil,) * 3).seifert())
    twist = c.load_catalog().profile("3-twist-negative-clasp")
    fig8 = c.load_catalog().profile("figure-eight")
    rows = [(name, ref, cli(argv), 3) for name, ref, argv in CLI_ROWS]
    rows += [
        ("levine_tristram T#T#T at 5/1260", 1.23,
         lambda: c.levine_tristram(ttt, c.RootOfUnity(5, 1260)), 1),
        ("alexander dense genus 8 (8 trefoils)", 8.4,
         lambda: c.alexander(c.SeifertMatrix(dense8.seifert())), 1),
    ]
    for k_max, ref in ((6, 0.11), (12, 0.79), (20, 4.07)):
        rows.append((f"fox_milnor 3-twist vs (2,1)-cable k_max={k_max}", ref,
                     lambda k=k_max: c.fox_milnor_obstruction(twist, c.cable_profile(twist, 2), k),
                     3 if k_max < 20 else 1))
    rows.append(("finite_order figure-eight p=2 bound 400", 0.40,
                 lambda: c.finite_order_obstruction(fig8, 2, 400), 3))

    class Args:
        workload, seed, seconds, trace = "baseline", "-", "-", 0

    bench.print_metadata(Args)
    print(f"{'row':48} {'ROADMAP s':>10} {'now s':>9} {'now/ROADMAP':>12}")
    for name, ref, fn, repeats in rows:
        now = best(fn, repeats)
        print(f"{name:48} {ref:10.2f} {now:9.3f} {now / ref:12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
