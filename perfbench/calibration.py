"""Machine speed, measured next to the timed operations.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over seconds and minutes.  A fixed interpreter loop
measures that speed, and times are scaled to read as seconds on the
machine the benchmark was tuned on (x86_64, 2 cores), where the loop took
``NOMINAL_S`` typically and ``FASTEST_S`` at best.  The loop does not
depend on the program, so a faster program still reads faster.

- A latency measured inside a worker is scaled by the median of the loop
  samples taken in the same process right around it (``scale``).
- A time measured from the benchmark's own process around a child process
  (ladder rungs, set-up) is scaled by the fastest of that process's samples
  in the run (``scale_fastest``).  These times are fastest repeats
  themselves, and the median of samples taken next to a child process
  swings more than the child does.
"""

from __future__ import annotations

import time
from statistics import median

ITERATIONS = 200_000
NOMINAL_S = 0.011
FASTEST_S = 0.0105


def sample() -> float:
    """Seconds the loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return time.perf_counter() - started


def samples(n: int = 3) -> list[float]:
    return [sample() for _ in range(n)]


def scale(around: list[float]) -> float:
    """Factor from seconds measured now to seconds at the nominal speed."""
    return NOMINAL_S / median(around)


def scale_fastest(series: list[float]) -> float:
    """Factor to seconds at the nominal speed, from the fastest sample."""
    return FASTEST_S / min(series)


def near(series: list[float], k: int, width: int = 2) -> list[float]:
    """The samples of ``series`` within ``width`` places of place ``k``."""
    return series[max(0, k - width):k + width + 1]
