"""Machine-speed sampling, so timings on a shared host compare across runs.

On a host whose cores are shared with other tenants, the same op's wall time
drifts by tens of percent within seconds: the core runs slower, it is not
descheduled, so CPU time drifts the same way. A SpeedSampler measures that
drift while an op runs. A SIGALRM timer runs a fixed kernel every INTERVAL_S
seconds and records how long it took; the op's wall time, minus the time
spent in the kernel, is scaled by the kernel's nominal time over its mean
time. The result reads as host seconds at the nominal speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02


# Seconds per kernel() call on an idle core of an Intel Xeon VM (2 vCPUs,
# CPython 3.11); it only sets the unit, so changing it rescales every timing.
NOMINAL_S = 180e-6


def kernel() -> int:
    """A fixed pure-Python loop. Standard library only, so a child process
    can sample its speed before it imports numpy or leoplan. Its data (a few
    small ints and the loop's bytecode) stays in the L1 cache: how much memory
    the op under test touches barely changes the kernel's time, and the kernel
    evicts next to none of the op's cached data."""
    s = 0
    for i in range(3000):
        s += i * i
    return s


class SpeedSampler:
    """Samples the kernel's time from a timer while started.

    The timer handler runs in the main thread between bytecodes, so a sample
    due during a long native call is taken when the call returns.
    """

    def __init__(self):
        self.samples: list = []  # (start, seconds)
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self.samples = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent in the kernel between t0 and t1."""
        return sum(d for start, d in self.samples if t0 <= start < t1)

    def mean(self) -> float:
        return sum(d for _, d in self.samples) / len(self.samples)

    def nominal(self, t0: float, t1: float) -> float:
        """Host seconds from t0 to t1, less the kernel's, at the nominal speed."""
        return (t1 - t0 - self.busy(t0, t1)) * NOMINAL_S / self.mean()
