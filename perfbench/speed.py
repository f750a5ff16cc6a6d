"""Machine-speed calibration for runs on a shared, noisy host.

On the 2-vCPU VM this benchmark was built on, the same CPU-bound work took
from 1x to 2x as long from one minute to the next, because other tenants
share the host; CPU time tracked wall time, so this is contention, not
steal.  A fixed probe timed between operations slows down by the same factor
as the operations, so every reported time is divided by

    factor = probe time in this run / reference probe time

i.e. it is the time the operation would take when the host runs the probe
in its reference time.  No probe touches neutromap, so a change to the
library cannot move it.  Raw values are printed on the `detail` line.

There are two probes, one for each kind of workload:

- "python", for operations that run in this process: Fraction arithmetic
  and dict stores, about 3.2 ms.  Over 5-second windows whose speed varied
  by 1.9x, map runs took 8.2 to 9.1 times the mean probe time.  (The median
  probe tracked them worse: a short probe either misses a stall or catches
  it.)
- "interpreter", for operations that run in child processes: a bare
  `python -c pass` child, about 70 ms.  The in-process probe does not see
  what slows a child down (its times moved 2x while the children's moved
  10%); the child probe does: with two CPU-bound processes of our own beside
  it, CLI commands slowed by 50% and their ratio to the child probe moved by
  less than 10%.  The median is used, since one slow start of 70 ms is an
  outlier rather than a stall spread over many probes.
"""

import statistics
import subprocess
import sys
import time
from fractions import Fraction


def python_probe():
    """Fraction arithmetic and dict stores, about 3.2 ms on the quiet host."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        x = Fraction(i % 13 + 1, i % 7 + 1)
        acc = acc * Fraction(1, 2) + x
        table[(i % 50, i % 3)] = (acc.numerator % 97, x)
    return time.perf_counter() - t0


def interpreter_probe():
    """A bare `python -c pass` child, about 70 ms on the quiet host."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


# kind -> (probe, reference time on the quiet host (Python 3.11.7),
#          timed work between probes, probes per window, statistic over a window,
#          probes for a spot check)
PROBES = {
    "python": (python_probe, 0.0032, 0.05, 20, statistics.fmean, 20),
    "interpreter": (interpreter_probe, 0.068, 0.15, 8, statistics.median, 3),
}


def spot_factor(kind):
    """The host's speed factor now, from a few probes (for work done just before)."""
    probe, reference_s, _every, _window, stat, spot = PROBES[kind]
    return stat([probe() for _ in range(spot)]) / reference_s


class Speedometer:
    """Probes after every so much timed work, never inside a timed call.

    The host's speed drifts within a run as well as between runs, so each
    operation is scaled by the probes of its own window (about a second of
    timed work) rather than by the whole run's.
    """

    def __init__(self, kind):
        self.probe, self.reference_s, self.every_s, self.window, self.stat, _ = PROBES[kind]
        self.samples = []
        self.after = []  # how many operations had run when each probe ran
        self._ops = 0
        self._since = self.every_s

    def tick(self, timed_s):
        self._ops += 1
        self._since += timed_s
        if self._since >= self.every_s:
            self.samples.append(self.probe())
            self.after.append(self._ops)
            self._since = 0.0

    def factor(self):
        """How many times slower than the reference the host ran (1.0 = reference)."""
        if not self.samples:
            self.samples.append(self.probe())
            self.after.append(self._ops)
        return self.stat(self.samples) / self.reference_s

    def scale(self, lats):
        """The ticked latencies, each divided by the factor of its window of probes."""
        self.factor()
        out = []
        starts = self.after[::self.window] + [len(lats)]
        starts[0] = 0
        for w in range(len(starts) - 1):
            probes = self.samples[w * self.window:(w + 1) * self.window]
            f = self.stat(probes) / self.reference_s
            out += [x / f for x in lats[starts[w]:starts[w + 1]]]
        return out
