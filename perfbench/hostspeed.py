"""Timings at a fixed reference speed of the host.

A small VM on a shared host does not run at one speed. On a 2-vCPU Xeon VM
the same `evaluate_model` call took 175 ms for a minute and then 280 ms
for the next, and a pure-Python reference loop run between the calls moved
with it: the ratio of the two stayed within 7%. Ten runs of a workload a
minute apart then spread by more than any bound a timing can carry.
Large matrix products move less than the interpreter does; a small matrix
product tracks them (within 5% where the Python loop moved 12%).

So a workload process samples the host while it works. A SIGALRM timer
runs both references, a Python loop and a small matrix product, every
INTERVAL_S seconds in the main thread. A phase's time is reported at the
reference speed: its wall time, less the time spent sampling, times the
reference's nominal time over its median time near the phase. Phases
bound by the interpreter use the loop, phases bound by BLAS the product.
The wall times are kept beside the corrected ones.
"""

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.25         # one sample of both references per interval
# Nominal times, about each reference's median on a 2-vCPU 2.0 GHz Xeon VM
# with one BLAS thread; corrected seconds are seconds on such a host.
NOMINAL_S = {"python": 0.002, "gemm": 0.001}
PAD_S = 1.0               # samples this close to a phase also count for it
_A = np.random.default_rng(0).random((64, 448))
_B = np.random.default_rng(1).random((448, 448))


def _python():
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def _gemm():
    return _A @ _B


class HostSpeed:
    """Reference samples taken while a workload runs, and timings corrected by them."""

    def __init__(self):
        self.starts = []   # perf_counter at the start of each sample
        self.spent = []    # its whole duration
        self.costs = {name: [] for name in NOMINAL_S}   # each reference's time

    def _sample(self, signum, frame):
        start = t = time.perf_counter()
        for name, fn in (("python", _python), ("gemm", _gemm)):
            fn()
            now = time.perf_counter()
            self.costs[name].append(now - t)
            t = now
        self.starts.append(start)
        self.spent.append(t - start)

    @contextmanager
    def sampling(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def _index(self, t):
        return bisect.bisect_left(self.starts, t)

    def busy(self, start, end):
        """Wall seconds of [start, end] less the sampling inside it."""
        return end - start - sum(self.spent[self._index(start):self._index(end)])

    def seconds(self, start, end, reference="python"):
        """Seconds of [start, end] at the reference's speed; wall seconds without samples."""
        costs = self.costs[reference]
        if not costs:
            return self.busy(start, end)
        # a native call can hold sampling off for longer than the pad; then use them all
        near = costs[self._index(start - PAD_S):self._index(end + PAD_S)] or costs
        return self.busy(start, end) * NOMINAL_S[reference] / statistics.median(near)

    def reference_ms(self):
        """Median time of each reference over the whole process; empty without samples."""
        return {name: 1e3 * statistics.median(c) for name, c in self.costs.items() if c}
