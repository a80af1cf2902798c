"""Rescaling of measured times for the host's drifting speed.

On a shared host the same pure-Python work can take 40 % longer from one
second to the next, because other tenants compete for the core.  A
``SpeedProbe`` interrupts the benchmark every ``INTERVAL`` seconds (SIGALRM)
and times one fixed calibration sample, about 1 ms of the string slicing,
comparison and dictionary work that symrich's hot loops consist of.  A job's
time is then its wall time minus the probe's interruptions, multiplied by
``SAMPLE_REF_S`` over the mean sample time during the job (or the last
``WINDOW`` samples, for jobs shorter than that).  The result is the job's
wall time at the speed where a sample takes ``SAMPLE_REF_S``; the
calibration code is the benchmark's own, so a change to symrich moves it only
through the job's wall time.
"""

from __future__ import annotations

import random
import signal
from statistics import fmean
from time import perf_counter

INTERVAL = 0.05
WINDOW = 10
SAMPLE_REF_S = 0.001

_TEXT = "".join(random.Random(0).choice("0123") for _ in range(1508))
_TABLE = str.maketrans("0123", "3210")


def calibration_sample() -> int:
    """Fixed work: mirrored-window tests over a string, then a substring index."""
    n = 0
    mirrored = _TEXT.translate(_TABLE)
    for i in range(8, 1500):
        if _TEXT[i - 8:i] == mirrored[i - 8:i][::-1]:
            n += 1
    index: dict[str, list[int]] = {}
    for i in range(0, 1500, 2):
        index.setdefault(_TEXT[i:i + 5], []).append(i)
    return n + len(sorted(index))


class SpeedProbe:
    """Samples the machine's speed from a timer signal while it is entered."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the signal handler

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        calibration_sample()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def rescale(self, mark: tuple[int, float], elapsed: float) -> float:
        """``elapsed`` wall seconds since ``mark``, without interruptions, at reference speed."""
        count, spent = mark
        window = self.samples[min(count, len(self.samples) - WINDOW):]
        return (elapsed - (self.spent - spent)) * SAMPLE_REF_S / fmean(window)

    def median_sample(self) -> float:
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2]
