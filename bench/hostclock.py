"""Host-speed reference: time work against a fixed reference kernel.

The benchmark runs on vCPUs that share physical cores with other tenants.
On the 2-vCPU x86_64 host the bounds were set on, each vCPU switches between
two speeds about 1.75x apart every second or so, independently of the other
vCPU, and runs of the same code saw their median time move by 30-50 %.  No
statistic of raw times removes that, so the gated times are host-normalized:

* ``HostClock`` runs ``kernel`` twice every ``INTERVAL_S`` from a
  ``SIGALRM`` handler in the thread that does the work, and once on entry
  and on exit, and times the second run: the first warms the caches, so the
  sample measures the core's speed and not what the workload left in them.
* ``HostClock.measure`` splits an interval at the samples, divides each
  piece by the kernel's mean time at its two ends, and scales the sum by
  ``REFERENCE_S``: the interval's length on a core where the kernel takes
  ``REFERENCE_S``, that is a core nobody else is using.  The time the
  handler itself ran is left out of both the raw and the normalized figure.

The kernel is fixed code that does not touch dpkalman: small matrix
products, tiny solves and 1x1 array arithmetic in Python loops, float
formatting and integer arithmetic, the kinds of work the workloads do.  A
mix of them tracked every workload's slowdown better than any one alone.
A change to dpkalman moves the workload's time and not the kernel's, so it
shows in full.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# a sample (two kernel runs) every 40 ms costs about 4 % of the time and
# is left out of it
INTERVAL_S = 0.04
# the kernel's time on an uncontended vCPU of that host (its fast speed)
REFERENCE_S = 5.0e-4

_MATRIX = np.random.default_rng(0).standard_normal((18, 18))
_VECTOR = np.ones(18)
_SMALL = np.array([[2.0, 0.3], [0.1, 1.5]])
_RHS = np.ones(2)
_SCALAR = np.array([[0.9]])


def kernel() -> None:
    """Fixed work of the kinds the workloads do, in equal shares."""
    # matrix-vector products in a Python loop, as in the filter step
    v = _VECTOR
    for _ in range(20):
        v = _MATRIX @ v
        v = v / (1.0 + abs(float(v[0])))
    # tiny solves and inverses, as in the Riccati iteration
    for _ in range(8):
        np.linalg.solve(_SMALL, _RHS)
        np.linalg.inv(_SMALL)
    # a scalar Riccati-like recursion on 1x1 arrays
    p = np.array([[1.0]])
    for _ in range(15):
        p = _SCALAR @ p @ _SCALAR.T + 0.01
        p = p - p @ np.linalg.inv(p + 1.0) @ p
        float(np.max(np.abs(p)))
    # float formatting, as in CSV and JSON output, and integer arithmetic
    ",".join("%.17g" % (i * 0.1) for i in range(150))
    total = 0
    for i in range(2000):
        total += i * i


def kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Samples the kernel while work runs; use as a context manager.

    Only the main thread can install the handler.  Python re-runs a system
    call that the signal interrupts, so the timed code needs no care.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        # each sample: when the handler started and ended, and the timed
        # kernel run's duration
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_times: list[float] = []
        self._busy = False
        self._previous = None

    def sample(self, *_) -> None:
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()  # warms the caches the workload left cold
            self.kernel_times.append(kernel_s())
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Raw and normalized seconds of ``[start, end]``, sampling left out.

        Needs a sample that ends by ``start`` and one that starts at or
        after ``end``, as the samples taken on entry and exit provide.
        """
        first = bisect.bisect_right(self.ends, start) - 1
        last = bisect.bisect_left(self.starts, end)
        if first < 0 or last >= len(self.starts):
            raise ValueError("interval not bracketed by host-clock samples")
        raw = normalized = 0.0
        for i in range(first, last):
            # the gap from the end of sample i to the start of sample i + 1
            gap = min(self.starts[i + 1], end) - max(self.ends[i], start)
            if gap > 0.0:
                ref = 0.5 * (self.kernel_times[i] + self.kernel_times[i + 1])
                raw += gap
                normalized += gap / ref
        return raw, normalized * REFERENCE_S

    def median_kernel_s(self) -> float:
        return float(np.median(self.kernel_times))
