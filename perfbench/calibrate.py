"""Host speed reference, read throughout a run.

On a host whose virtual CPUs are shared, the speed this process gets drifts by
up to 2x over seconds to minutes, so raw times from two runs measure the host
as much as the program.  While a run measures, an interval timer interrupts it
every ``TICK_S`` to time a short fixed reference kernel, and each measured
interval is scaled by ``NOMINAL_MS`` over the reference's mean time in and
around it: the value it would read on a host where the reference takes
``NOMINAL_MS``.  The time spent on the reference is taken out of every interval
it falls in.  The kernel does the same kind of work as avfuse (small matrix
products and tanh on numpy arrays, closures recorded and replayed in reverse),
so contention slows it about as much as it slows the program.  The kernel is
part of the benchmark, so no change to avfuse can change its speed.
"""

from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Time of one reference burst on an uncontended 2-vCPU Intel Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4 with single-threaded OpenBLAS.
NOMINAL_MS = 1.5
BURST_CALLS = 5
TICK_S = 0.05

_rng = np.random.default_rng(0)
_W = 0.2 * _rng.standard_normal((32, 32))
_X = _rng.standard_normal((32, 8))


def _reference() -> float:
    h, tape = _X, []
    for _ in range(40):
        y = np.tanh(_W @ h)
        tape.append(lambda y=y, h=h: float((y * h).sum()))
        h = y[:, ::-1] + 0.5 * h
    return sum(f() for f in reversed(tape))


class SpeedLog:
    """Reference readings over a run, and the scaling they give any interval."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ms: list[float] = []
        self._busy = False

    def read(self) -> None:
        if self._busy:  # the timer fired during a reading
            return
        self._busy = True
        start = perf_counter()
        for _ in range(BURST_CALLS):
            _reference()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.ms.append(1e3 * (end - start))
        self._busy = False

    @contextmanager
    def ticking(self):
        """Read the reference now, every TICK_S while the block runs, and at its end."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.read())
        self.read()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.read()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_MS over the mean reference time of the readings that start
        inside [t0, t1] and the nearest one on either side."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.starts, t1) + 1, len(self.starts))
        return NOMINAL_MS / float(np.mean(self.ms[lo:hi]))

    def busy(self, t0: float, t1: float) -> float:
        """Seconds inside [t0, t1] spent on reference readings."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of program work in [t0, t1], at reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)
