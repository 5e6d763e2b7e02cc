"""The machine-speed reference that timed ops are scaled by.

The benchmark runs on shared virtual machines whose speed drifts: the
same pure-Python loop can take 1.7 times as long in a slow phase.  Slow
and quick spells alternate within a second, and the share of slow ones
changes over minutes.  So a short reference loop is timed before the
first op of a pass and after every op, and op times are reported in
*reference seconds*: measured seconds times REFERENCE_SECONDS over the
faster of the two probes on either side of the op.  An op of
LONG_OP_SECONDS or more instead gets probes on a timer while it runs
(see `Sampler`); their mean follows the share of slow spells over the
op, and the op is scaled by it to the power LONG_OP_SENSITIVITY.  On a
machine where the loop takes REFERENCE_SECONDS, reference seconds are
wall-clock seconds.  The loop is the benchmark's own code, so a change
to the package moves an op's reference seconds exactly as it moves its
wall-clock seconds.
"""

from __future__ import annotations

import gc
import signal
from statistics import mean, median
from time import perf_counter

REFERENCE_SECONDS = 0.006  # the loop's time on a 2-vCPU VM with Python 3.11, in a quiet phase
LONG_OP_SECONDS = 5.0
SAMPLE_EVERY = 0.5  # seconds between the probes taken during a long op
# How strongly a long op's time follows the probe: the slope of log time
# against log mean probe for closing I_5, over 16 passes spread over
# quiet and slow phases (correlation 0.95).  A slow phase slows the
# reference loop 2.2 times but that closure only 1.7 times, so scaling by
# the full ratio made it read 1.3 times faster in slow phases.
LONG_OP_SENSITIVITY = 0.66


def _loop() -> list:
    """Tuple keys, dict and set updates and a sort: the package's staple work."""
    seen, counts = set(), {}
    for i in range(20000):
        key = (i % 211, i % 199)
        counts[key] = counts.get(key, 0) + 1
        seen.add(key[0] * key[1])
    return sorted(seen)


def probe() -> float:
    """Median time of three runs of the reference loop.

    The cyclic collector is off while the loop runs.  With it on, the
    loop's time followed the heap the timed ops had left behind (inside
    the closure of I_5 it read about 1.5 times its usual time), not the
    machine's speed.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return median(times)


class Speed:
    """Reference probes taken between the timed ops of one sequence."""

    def __init__(self):
        self.probes = [probe()]

    def mark(self) -> None:
        """Probe again; call after each timed op."""
        self.probes.append(probe())


class Sampler:
    """Probes taken on a SIGALRM timer during one call.

    `call(fn, ...)` runs fn and, from its LONG_OP_SECONDS-th second on,
    probes every SAMPLE_EVERY seconds; shorter calls are not touched.
    Afterwards `probes` holds the call's probes and `spent` the seconds
    they took, which the caller subtracts from the call's time.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0

    def _take(self, signum, frame) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self.spent += perf_counter() - start

    def call(self, fn, *args, **kwargs):
        self.probes, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, LONG_OP_SECONDS, SAMPLE_EVERY)
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def reference_seconds(seconds: list[float], probes: list[float],
                      during: list[list[float]] | None = None) -> list[float]:
    """Op i's time scaled by the faster of probes i and i + 1.

    An op of LONG_OP_SECONDS or more is scaled by the mean of the probes
    taken during it (`during[i]`), to the power LONG_OP_SENSITIVITY, or
    keeps its measured time if it has none.  Two probes at its ends
    would catch two instants of a machine that switches speed within a
    second, and only add their own noise.
    """
    out = []
    for i, s in enumerate(seconds):
        if s < LONG_OP_SECONDS:
            out.append(s * REFERENCE_SECONDS / min(probes[i], probes[i + 1]))
        elif during and during[i]:
            out.append(s * (REFERENCE_SECONDS / mean(during[i])) ** LONG_OP_SENSITIVITY)
        else:
            out.append(s)
    return out
