"""The benchmark's reference clock: a fixed pure-Fraction loop that uses no
library code.

The benchmark shares its host with other tenants, and the host's speed for
this single-threaded, Fraction-bound code swings by up to about 2x within
a minute.  Timing this loop next to the workload measures that swing, and
every gated time is scaled by REFERENCE_S / (the loop's time), which reports
it in seconds at the speed where the loop takes REFERENCE_S.
"""

from fractions import Fraction
from time import perf_counter

ITERATIONS = 2000
# The loop's time on a 2-vCPU x86-64 host with Python 3.11.7 in its fastest
# observed state.  Any constant works: gates compare ratios of medians.
REFERENCE_S = 0.010


def loop_seconds() -> float:
    """Wall seconds of one pass of the fixed loop."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, ITERATIONS + 1):
        acc = (acc + Fraction(i % 97, i % 89 + 1)) % 7
    return perf_counter() - t0
