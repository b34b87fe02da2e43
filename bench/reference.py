"""Fixed reference kernel that tracks how fast the machine runs right now.

On a shared VM the speed of the same Python code drifts by a quarter or
more over minutes, for every workload at once. Each run therefore
interleaves this kernel, which does not touch cgexact, with its own work and
reports times at the nominal speed: a time is multiplied by NOMINAL_NS over
the kernel's mean duration in that run (a rate is divided by it). A change
to cgexact moves the workload's times but not the kernel's, so it still
shows in full.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction

# Mean duration of one kernel call on a 2-core VM (Python 3.11) at its usual
# speed; any constant works, since runs are compared with each other.
NOMINAL_NS = 6_000_000


def kernel_ns() -> int:
    """Run the kernel once: rational sums, big-integer arithmetic and dict
    updates, the mix the workloads spend their time in."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k, k * k + 1)
    x = 3**3000
    for _ in range(60):
        x = (x * 7 + 1) % (10**1200 + 7)
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter_ns() - start


def speed_factor(samples: list[int]) -> float:
    """NOMINAL_NS over the mean kernel duration: below 1 when the machine is
    slow, so multiplying a time by it gives the time at nominal speed."""
    return NOMINAL_NS / (sum(samples) / len(samples))


@contextlib.contextmanager
def sampled(every_s: float):
    """Run the kernel every `every_s` seconds from a timer signal while the
    block runs, in this thread, so that it samples the machine's speed
    during work the harness cannot interleave with (a whole CLI command).
    Yields the list of kernel durations, which ends with one more run."""
    samples: list[int] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(kernel_ns()))
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(kernel_ns())
