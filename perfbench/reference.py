"""Machine-speed reference for calibrated throughput.

On a shared host the speed of one core drifts by 20-40% within seconds
and over minutes, and it moves every wall-clock figure of a run
together.  While the passes of an untraced run execute, a timer signal
interrupts them every ``INTERVAL_S`` seconds and times one call of a
small fixed kernel, so the machine's speed is sampled during the passes
themselves; the handler's own time is kept off the pass clock.  The
benchmark reports throughput per *reference-second*, the median time
this machine needed during the pass for ``CALLS_PER_REF_S`` kernel calls
(about one second on a 2.1 GHz Xeon with CPython 3.11).

The kernel is exact rational arithmetic with tuple-keyed dict updates,
the same kind of work the package does, and it imports nothing from the
package, so no change to the package can move it.  Sampling between
passes instead of during them does not work: passes last seconds, and
the speed changes within them.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import median
from time import perf_counter

INTERVAL_S = 0.25
CALLS_PER_REF_S = 160


def kernel() -> int:
    table = {}
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i % 97, i % 89)] = acc
    return len(table)


class Sampler:
    """Context manager that samples the kernel from SIGALRM while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        self._spent += perf_counter() - start

    def clock(self) -> float:
        """Wall seconds minus the seconds spent in the signal handler."""
        while True:
            spent = self._spent
            now = perf_counter()
            if spent == self._spent:
                return now - spent

    def ref_second(self, first: int = 0) -> float:
        """Wall seconds of one reference-second, from the samples taken
        since sample number ``first``, or from all samples if there are
        none since (a pass shorter than the interval)."""
        if not self.samples:
            self._tick(None, None)
        return CALLS_PER_REF_S * median(self.samples[first:] or self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
