"""Host speed, sampled during a run, to rescale measured times.

On a shared virtual machine the same pure-Python work can take 1.5x to 2.4x
longer from one minute to the next, and the speed shifts within seconds
(measured on a 2-vCPU host, Python 3.11): far more than any bound a
regression gate can use.  So while a run measures, an interval timer
interrupts it every `INTERVAL` seconds and times one small fixed unit of
work in the signal handler, on the same thread: no thread or process is
started.  A measured segment is rescaled to the speed at which the unit
takes `UNIT_SECONDS`:

    reported = (measured - time spent in the handler) * mean(UNIT_SECONDS / unit time)

over the samples taken inside the segment (or the nearest ones, for a
segment too short to hold `MIN_SAMPLES`).  The unit does what noethops
spends its time on, exact `Fraction` arithmetic on dict-held sparse
polynomials and dense row reduction, but imports nothing from the program,
so no change to the program can change it.  The rescaling assumes the
program slows down in the same proportion as the unit: over ten runs per
workload, rescaled wall times spread by 2-5% (quartile distance over the
median), unscaled ones by 20-25%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter
INTERVAL = 0.2
MIN_SAMPLES = 5
# The middle of the unit's time (0.004 to 0.008 s) on the host where the
# baseline was captured; only the scale of reported times depends on it.
UNIT_SECONDS = 0.006


def unit() -> None:
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5 - i)}
    square: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in p.items():
            m = (a1 + a2, b1 + b2)
            square[m] = square.get(m, 0) + c1 * c2
    n = 10
    mat = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]


class SpeedSampler:
    """Context manager sampling the host speed on SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, speed)
        self.handler_seconds = 0.0
        self.listener = None  # called with the seconds each sample took
        self._previous = None

    def _handler(self, signum, frame) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        t0 = clock()
        unit()
        t1 = clock()
        if gc_was_enabled:
            gc.enable()
        self.samples.append((t0, UNIT_SECONDS / (t1 - t0)))
        spent = clock() - t0
        self.handler_seconds += spent
        if self.listener is not None:
            self.listener(spent)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """A point in time, for `rescale`."""
        return clock(), self.handler_seconds

    def rescale(self, start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
        """(seconds between the marks at the sampled speed, that speed)."""
        measured = (end[0] - start[0]) - (end[1] - start[1])
        inside = [s for t, s in self.samples if start[0] <= t <= end[0]]
        if len(inside) < MIN_SAMPLES:
            middle = (start[0] + end[0]) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:MIN_SAMPLES]
            inside = [s for _, s in nearest]
        speed = statistics.mean(inside)
        return measured * speed, speed
