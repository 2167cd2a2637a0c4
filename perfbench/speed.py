"""Host speed, measured by a fixed reference kernel run beside the program.

The shared 2-core Xeon host this benchmark was written on changes speed by up
to 1.7x over tens of seconds and minutes, which put spreads of 0.2 to 0.36 of
the median into wall times taken across five runs. A fixed pure-Python kernel
slows by the same factor as the program: over two minutes in which a lookup
round took from 24 to 40 ms, the round took between 17.2 and 19.0 kernel
samples; the import of genpascal in a fresh interpreter took from 85 to
114 ms, and between 47 and 56 samples.

So the benchmark samples the kernel between ops, outside the timed region,
and reports every time scaled to the speed at which one sample takes
REFERENCE_NS: the time the program would take on that host when the sample
reads REFERENCE_NS. The kernel uses only the standard library, so no change
to genpascal can move it; a slower or faster program moves the scaled times
exactly as it moves the raw ones. Slow spells as short as 50 ms also occur;
sampling every 250 ms cannot follow them, so they still widen the tail of
ops much shorter than that (see the lookup workload).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# What one sample (the median of three kernel runs) reads on the 2-core Xeon
# at its faster speed; it sets the speed the scaled times refer to.
REFERENCE_NS = 1_400_000
# The timed loop takes a sample before the next op once this much time has
# passed since the last one, so samples cost about 2% of a run.
SAMPLE_EVERY_NS = 250_000_000


def reference_kernel() -> Fraction:
    """Exact rational arithmetic, rationals to and from text, and base-q digit
    loops over big integers: the kind of work genpascal spends its time on."""
    acc = Fraction(0)
    for n in range(1, 120):
        acc += Fraction((n * 7919) % 97 + 1, n)
        acc = Fraction(str(acc)) / 2 + 1
        x = n**9
        while x:
            x, _ = divmod(x, 7)
    return acc


def sample_ns() -> int:
    """Median wall time of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        reference_kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def factor(before: int, after: int) -> float:
    """Scale for a time taken between two samples: REFERENCE_NS over their mean."""
    return 2 * REFERENCE_NS / (before + after)
