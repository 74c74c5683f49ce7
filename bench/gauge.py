"""The speed gauge, and time scaled by it.

The shared host this was built on runs the same code up to 1.6 times slower
for stretches of seconds to minutes, invisibly to the process (its CPU time
grows with its wall time).  The benchmark therefore runs a fixed task, the
gauge, next to the work it times, and states every time for a machine on
which the gauge takes GAUGE_REF_MS.  The program and the gauge slow down
together, so the quotient keeps the program's own cost.  This module needs
nothing but the standard library, so a setup probe can start sampling
before it imports dglevels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

GAUGE_REF_MS = 1.0    # times are stated for a machine on which the gauge takes this long
SAMPLE_S = 0.05       # CPU seconds between gauge runs inside timed work


def gauge_ns():
    """Wall time of one run of a fixed pure-Python task (~1 ms) made of the
    kinds of work the library does: Fraction arithmetic, and tuples used as
    dict keys, sorted and frozen."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i)
    for _ in range(2):
        table = {}
        for i in range(400):
            key = (i % 13, i % 7, "x" * (i % 3))
            table[key] = table.get(key, ()) + (i,)
        {k: frozenset(v) for k, v in sorted(table.items(), key=lambda kv: len(kv[1]))}
    return time.perf_counter_ns() - t0


def scaled_ms(ns, gauges):
    """A measured time restated for a machine on which the gauge takes
    GAUGE_REF_MS: time ÷ the mean of the gauge runs before, during and after
    it."""
    return ns / 1e6 * (GAUGE_REF_MS * 1e6) / statistics.fmean(gauges)


class Sampler:
    """SIGPROF handler that runs the gauge every SAMPLE_S of CPU time while
    timed work runs, so that long work is scaled by the machine's speed while
    it ran, not only at its ends.  The time the gauge takes is kept apart, to
    be taken out of the work's time."""

    def __init__(self):
        self.gauges, self.spent_ns = [], 0
        signal.signal(signal.SIGPROF, self)

    def __call__(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.gauges.append(gauge_ns())
        self.spent_ns += time.perf_counter_ns() - t0

    def start(self):
        self.gauges, self.spent_ns = [], 0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self):
        """Stop sampling; returns the gauge times and the time they took."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        return tuple(self.gauges), self.spent_ns
