"""How fast the shared host runs, sampled inside the measured loop.

The host drifts: the same optimizer restart took 2.0 s in one minute and
3.2 s in another, and its speed moves within a second. A fixed reference
kernel is timed from a timer signal every PERIOD_S seconds, also in the middle
of a CLI call, and each call is scaled by the kernel times around it. The
signal needs no extra thread; the kernel's own time is cut out of the call it
interrupted.
"""

from __future__ import annotations

import bisect
import json
import signal
import time

import numpy as np

PERIOD_S = 0.1
# Duration of reference_kernel on the reference machine (a 2-core Intel Xeon
# VM at 2.1 GHz, in its faster state). Scaled times read as times there.
REFERENCE_KERNEL_S = 0.002

# Bound now, so that a traced run's wrapped numpy.kron is not the one timed.
_kron = np.kron
_qr = np.linalg.qr
_eigh = np.linalg.eigh
_norm = np.linalg.norm


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy linear algebra, Python calls
    and float formatting, the kinds of work a wayaudit call does.

    It runs no wayaudit code, so a change to the program cannot move it.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    start = time.perf_counter()
    out = []
    for _ in range(30):
        q, _ = _qr(a)
        w, v = _eigh(a + a.conj().T)
        k = _kron(q[:2, :2], q[:3, :3]) @ v
        out.append(format(float(_norm(k)), ".17g") + json.dumps([float(x) for x in w]))
    return time.perf_counter() - start


class Speedometer:
    """Context manager: times the reference kernel on every SIGALRM tick."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.kernel.append(reference_kernel())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def ticks_in(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in ticks."""
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.starts, end)
        return sum(min(e, end) - max(s, start) for s, e in zip(self.starts[first:last], self.ends[first:last]))

    def kernel_near(self, start: float, end: float) -> float:
        """Mean kernel time over the ticks within a period of [start, end]."""
        if not self.kernel:
            return reference_kernel()
        first = bisect.bisect_left(self.starts, start - self.period)
        last = bisect.bisect_right(self.starts, end + self.period)
        if first == last:  # no tick close by: take the nearest one
            first = min(max(first - 1, 0), len(self.kernel) - 1)
            last = first + 1
        near = self.kernel[first:last]
        return sum(near) / len(near)
