"""Host-speed gauge: a fixed reference computation sampled all through a run.

On a shared host the machine's own speed drifts. On a 2-vCPU virtual
machine (Intel Xeon, 2.0 GHz) the same predict call took 2.0 ms in one
five-second window and 3.2 ms in the next, and whole minutes ran a third
slower than the minutes before them, which no number of repeats inside a run
averages away. The gauge runs a small computation that
does not touch marscost (small numpy ops of the sizes the net uses, a BLAS
product and an interpreter loop) at most every ``INTERVAL_S`` seconds between
the workload's calls. Interleaved this tightly, its duration tracked the
workload's (correlation 0.90-0.95 over five-second windows for fit steps,
predict calls and ray casting), and dividing by it halved their variation.

A time measured over [t0, t1] is divided by the gauge's factor there: the
median duration of the samples within ``PAD_S`` seconds of the window, over
``NOMINAL_S``. Time spent in samples is subtracted from any wall that holds
it. A disabled gauge never samples and has factor 1.
"""

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 2.5e-3  # reference duration that defines host speed factor 1
INTERVAL_S = 0.2  # least time between samples
PAD_S = 1.0  # samples this close to a measured window set its factor


class Gauge:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts = []
        self.ends = []
        self._next = 0.0
        rng = np.random.default_rng(12345)
        self._maps = [rng.standard_normal((24, 24, 8)) for _ in range(8)]
        self._weights = rng.standard_normal((8, 16))
        self._square = rng.standard_normal((200, 200))

    def _reference(self) -> float:
        acc = 0.0
        for x in self._maps:
            y = np.pad(x, ((1, 1), (1, 1), (0, 0)))
            acc += float((y[1:] - y[:-1]).sum())
            acc += float(np.sort(x, axis=None)[5])
            acc += float((x.reshape(-1, 8) @ self._weights).max())
        acc += float((self._square @ self._square).trace())
        for i in range(2000):
            acc += i * 0.5
        return acc

    def sample(self):
        if not self.enabled:
            return
        t0 = time.perf_counter()
        self._reference()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._next = t1 + INTERVAL_S

    def maybe_sample(self):
        """Sample unless the last sample ended less than ``INTERVAL_S`` ago."""
        if self.enabled and time.perf_counter() >= self._next:
            self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in samples."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(min(e, t1) - max(s, t0)
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness around [t0, t1]: above 1 is slower than nominal."""
        if not self.starts:
            return 1.0
        lo = bisect.bisect_left(self.ends, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        if hi <= lo:  # no sample that close: the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return statistics.median(
            e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])) / NOMINAL_S

    def normalize(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over [t0, t1], less samples, at nominal host speed."""
        return (seconds - self.busy(t0, t1)) / self.factor(t0, t1)
