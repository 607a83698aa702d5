"""Times at a fixed reference speed of the host.

On a shared host the same Python code runs up to 1.9x slower while
neighbours are busy, in phases of seconds to tens of seconds that hit
both CPUs at once.  A run of 25 s often sits inside one phase, so neither
the median nor the best of several passes repeats from run to run.

A reference loop of the interpreter work ospart does (tuple keys, dict
updates, small sorts, integer and Fraction arithmetic) slows with the
same phases.  The benchmark runs it between requests, at least every
PROBE_EVERY_S, and scales each measured time by REF_S over the loop's
median duration within WINDOW_S of it.  A reported time is therefore the
time at the speed where the reference loop takes REF_S.  On a shared
2-vCPU virtual machine, over 90 s, the medians of 20 consecutive calls of
one library function ranged over 1.8-2.0x raw and over 1.08-1.17x scaled.

Short-lived child processes (interpreter start-up, the `ospart` command)
did not follow that loop.  Their times are scaled by bare interpreter
starts instead, to the speed where one takes CHILD_REF_S.  Raw times are
kept in each result's metadata.
"""

import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from statistics import median
from time import perf_counter

REF_S = 0.002
PROBE_EVERY_S = 0.05
CHILD_REF_S = 0.05
CHILD_PROBE_EVERY_S = 0.25
WINDOW_S = 1.0
_MIN_PROBES = 4


def _ordered(a, b):
    return (a, b) if a < b else (b, a)


def reference_loop():
    """About 2 ms of the interpreter work ospart does: tuple keys, dict
    updates, small sorts, integer and Fraction arithmetic, calls."""
    acc = {}
    total = 0
    for i in range(4000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
        total += i * i % 7
    frac = Fraction(0)
    for i in range(750):
        key = _ordered(i % 17, i % 23)
        acc[key] = acc.get(key, 0) + i
        if i % 4 == 0:
            frac += Fraction(1, i % 9 + 1)
        word = tuple(sorted((i % 5, i % 3, i % 7)))
        acc[word] = len(word)
    return total + len(acc) + frac.denominator


class SpeedProbe:
    """Reference durations over time, and the scale they imply.

    By default the reference is `reference_loop`, run in this process;
    `child_probe` makes one for work done in child processes.
    """

    def __init__(self, reference=reference_loop, ref_s=REF_S,
                 every_s=PROBE_EVERY_S):
        self.reference = reference
        self.ref_s = ref_s
        self.every_s = every_s
        self.ends = []
        self.durations = []

    def probe(self):
        t0 = perf_counter()
        self.reference()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def maybe_probe(self):
        if not self.ends or perf_counter() - self.ends[-1] > self.every_s:
            self.probe()

    def scale(self, start, end):
        """REF_S over the median reference duration within WINDOW_S of
        [start, end], or of the probes just around it."""
        lo = bisect_left(self.ends, start - WINDOW_S)
        hi = bisect_left(self.ends, end + WINDOW_S)
        near = self.durations[lo:hi]
        if len(near) < _MIN_PROBES:
            i = bisect_left(self.ends, start)
            near = self.durations[max(0, i - _MIN_PROBES):i + _MIN_PROBES]
        return self.ref_s / median(near)

    def overall_scale(self):
        return self.ref_s / median(self.durations)


def child_probe(env):
    """A probe whose reference is a bare interpreter start, for work done
    in short-lived child processes."""
    def bare_start():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return SpeedProbe(bare_start, CHILD_REF_S, CHILD_PROBE_EVERY_S)
