"""Host speed, sampled while the benchmark measures.

The benchmark runs on a shared machine whose CPU speed swings by up to
2x for seconds to minutes at a time, so a wall time says as much about
the host's phase as about the program.  While untraced operations run,
a timer signal interrupts the program every ``PERIOD_S`` and times a
fixed reference kernel (interpreted struct, dict and float work, then
small numpy matrix products: the two kinds of work flowbundle does).
An interval's nominal time is its wall time, less the time the
sampler took inside it, scaled by the host's speed around it relative
to ``REFERENCE_S``: the time the interval would take on a host where
the kernel takes ``REFERENCE_S``.  The benchmark's own code only: a
change to flowbundle does not change the kernel.
"""

from __future__ import annotations

import signal
import struct
import time

import numpy as np

# Median time of one kernel on the 2-core machine the baseline was
# recorded on; nominal times are seconds on that machine at that speed.
REFERENCE_S = 0.0055
PERIOD_S = 0.25
# Samples this far either side of an interval count towards its speed,
# so that a short interval (one set-up) still has several.
WINDOW_S = 1.0
# Samples a run can hold: over 15 minutes at PERIOD_S.  They go into an
# array allocated up front, because Python objects kept from inside the
# program's operations would pin the allocator's arenas and raise its
# peak RSS with every operation.
CAPACITY = 4096

_RECORDS = struct.pack("<IIII", 1, 2, 3, 4) * 16
_X = np.random.default_rng(0).standard_normal((300, 40))
_W = np.random.default_rng(1).standard_normal((40, 20))


def kernel() -> float:
    tally: dict[int, float] = {}
    for i in range(300):
        for offset in range(0, len(_RECORDS), 16):
            a, b, c, _ = struct.unpack_from("<IIII", _RECORDS, offset)
            key = (a + i) % 97
            tally[key] = tally.get(key, 0.0) + b * 0.5 + c
    total = sum(tally.values())
    for _ in range(50):
        hidden = np.tanh(_X @ _W)
        total += float((hidden.T @ _X).sum())
    return total


class HostSampler:
    """Times the reference kernel on a timer signal between start and stop."""

    def __init__(self):
        self._samples = np.zeros((CAPACITY, 2))  # (start, kernel seconds)
        self.count = 0
        self._previous = None

    @property
    def samples(self) -> np.ndarray:
        return self._samples[: self.count]

    def _sample(self, signum, frame) -> None:
        if self.count == CAPACITY:
            return
        start = time.perf_counter()
        kernel()
        self._samples[self.count] = (start, time.perf_counter() - start)
        self.count += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed around [start, end], relative to REFERENCE_S."""
        t, k = self.samples.T
        near = k[(start - WINDOW_S <= t) & (t < end + WINDOW_S)]
        if not near.size:
            raise RuntimeError(f"no host speed sample within {WINDOW_S} s of an interval")
        return float(np.mean(REFERENCE_S / near))

    def nominal_s(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at nominal host speed."""
        t, k = self.samples.T
        sampling = float(k[(start <= t) & (t < end)].sum())
        return (end - start - sampling) * self.speed(start, end)
