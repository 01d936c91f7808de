"""The host's pace, measured next to every timed piece of work.

On a shared machine the same work can run half again as slow for seconds
or minutes at a time while other tenants load the caches the benchmark
shares with them; a plain wall-clock figure then depends more on when a
run happens than on the code it measures.  So the benchmark times a fixed
reference computation of its own after every operation and after every
set-up: exact integer and rational arithmetic from ``oracles`` (Bareiss
determinants of dense integer matrices, certified cosines), the same kind
of pure-Python work the library does, and code that no change to the
library touches.  Each wall time is then scaled by the reference's nominal
time over its median time measured around that work, raised to how
closely that kind of work follows the reference (START_SENSITIVITY).  The scaled figures
are what the work would take on the host when it is not loaded; the raw
wall-clock figures are printed beside them.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import families as F
import oracles as O

# The nominal time of one reference computation, in seconds: about its
# time on an unloaded host (2-vCPU Xeon at 2.0 GHz, Python 3.11), where it
# takes 1.4 to 1.7 ms while the host is loaded.
REFERENCE_S = 0.001
# An operation's pace is the median of the references from WINDOW before
# it to WINDOW after it.
WINDOW = 2
# References timed after each set-up.
SETUP_REFERENCES = 5
# How closely a kind of work follows the reference's pace: the slope of
# log(time) on log(reference time).  Work in the benchmark's own process
# follows it fully; starting a fresh interpreter and importing the library
# (set-up, CLI operations) follows it at 0.4 (least squares over 60 CLI
# operations, each against the other runs of its subcommand; r = 0.70).
START_SENSITIVITY = 0.4
# After an operation, references run until they have taken this share of
# the operation's time (at least one).
SHARE = 0.02

_MATRICES = [F.random_knot(random.Random(i), 5, density=4).seifert() for i in range(8)]
_ANGLES = [Fraction(k, 37) for k in range(1, 9)]


def reference() -> float:
    """Run the reference computation once; its wall seconds."""
    start = time.perf_counter()
    for m in _MATRICES:
        O.det(m)
    for theta in _ANGLES:
        O.cos2pi_bounds(theta, 256)
    return time.perf_counter() - start


def sample(op_seconds: float) -> float:
    """The median of references run right after an operation: one, or more
    until they have taken SHARE of the operation's time."""
    times = [reference()]
    while sum(times) < SHARE * op_seconds:
        times.append(reference())
    return statistics.median(times)


def setup_pace() -> float:
    """Median reference time right after a set-up, after one warm-up."""
    reference()
    return statistics.median(reference() for _ in range(SETUP_REFERENCES))


def scale(seconds: float, reference_s: float, sensitivity: float = 1.0) -> float:
    """A time taken at the pace where the reference took ``reference_s``,
    brought to the nominal pace."""
    return seconds * (REFERENCE_S / reference_s) ** sensitivity


def paced(times: list[float], references: list[float], sensitivity: float = 1.0) -> list[float]:
    """Each time scaled by the median of the references timed around it
    (references[i] was timed right after times[i])."""
    return [scale(t, statistics.median(references[max(0, i - WINDOW) : i + WINDOW + 1]), sensitivity)
            for i, t in enumerate(times)]
