"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the speed of a vCPU drifts: on a 2-vCPU Linux VM it
switched between two states about 1.4-1.6x apart, each lasting from seconds
to minutes, and CPU time drifted with wall time.
No amount of repetition inside a 30 s run removes a state that outlasts it.

So the host's speed is sampled with a fixed reference kernel that uses no
``koranyi`` code: pure-Python arithmetic and small numpy array updates, the
same mix the program runs.  An interval is rescaled by
``REFERENCE_S / kernel time`` measured around it, which gives its length on
a host where the kernel takes ``REFERENCE_S``.  ``HostSpeed`` samples the
kernel on an interval timer while an operation runs, so a change of host
state in the middle of a long operation is followed too.  ``REFERENCE_S`` is
near the kernel's time on that VM when the host was fast.  The raw
figures are kept next to the rescaled ones in every result.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1.6e-3


def _kernel() -> float:
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i * 0.5)
    a = np.arange(64.0)
    for _ in range(300):
        a = a * 1.0000001 + 0.5
        acc += float(a.sum())
    return acc


def kernel_s(repeats: int = 5) -> float:
    """Median time of the reference kernel right now."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def rescale(seconds: float, kernel: float) -> float:
    """``seconds`` as it would read on the reference host state."""
    return seconds * REFERENCE_S / kernel


class HostSpeed:
    """Samples the kernel every ``interval`` seconds of real time while active,
    and after every timed call.  ``interval=0`` keeps only the latter, so no
    sample lands inside the call.

    Use as a context manager in the main thread; it owns SIGALRM meanwhile.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel, to take out of timings

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, call) -> tuple[float, float]:
        """Run ``call``; return its (raw, rescaled) seconds, kernel time excluded."""
        first = len(self.samples) - 1  # the last sample before the call
        spent = self.spent
        t0 = perf_counter()
        call()
        raw = perf_counter() - t0 - (self.spent - spent)
        self._sample()  # and one right after it
        return raw, rescale(raw, statistics.mean(self.samples[first:]))
