"""Speed probe: operation times in reference seconds.

The machine the benchmark runs on is a shared VM whose speed swings by up
to 1.9x in phases that last from about a second to a minute, and process
CPU time slows down with it.  So a sample measures both the program and
the phase it happened to run in.  The probe separates the two: while the
operations run, a timer signal every ``PERIOD_S`` runs a fixed ~1 ms
kernel (fraction-free sparse elimination on a constant integer matrix,
the kind of work ``linalg`` does) and records how long it took.  The
kernel's time is the machine's current speed.  An operation's time in
reference seconds is the sum, over the stretches between two probes, of
the stretch's length divided by the local kernel time (the median of the
five nearest probes), times ``KERNEL_REF_S``.  Time spent in the probe
itself is left out.

The kernel is fixed code of the benchmark and calls nothing of the
package, so a change to the package moves an operation's reference time
and not the yardstick.
"""

import bisect
import signal
import time
from math import gcd

# Few and small imports: child.py imports this module before it times the
# package's import, so it must not preload what the package imports.

PERIOD_S = 0.025
# Seconds one kernel takes on the reference machine in a fast phase
# (Python 3 on a 2-vCPU VM of a shared host); it only sets the scale.
KERNEL_REF_S = 1.0e-3
SMOOTH = 2  # probes on each side in the median of local kernel times
SETUP_KERNELS = 5  # kernels run just before and just after a timed set-up


def _matrix(rows: int = 24, cols: int = 20, per_row: int = 5):
    """A constant sparse integer matrix from a linear congruential sequence."""
    x = 12345
    out = []
    for _ in range(rows):
        row: dict[int, int] = {}
        while len(row) < per_row:
            x = (1103515245 * x + 12345) % 2**31
            row.setdefault(x % cols, (-3, -2, -1, 1, 2, 3)[(x >> 8) % 6])
        out.append(row)
    return out


MATRIX = _matrix()


def kernel() -> int:
    """Forward elimination of ``MATRIX``; returns the rank."""
    work = [dict(r) for r in MATRIX]
    rank = 0
    while work:
        pivot_col = min(min(r) for r in work)
        idx = next(i for i, r in enumerate(work) if pivot_col in r)
        pivot = work.pop(idx)
        pv = pivot[pivot_col]
        rank += 1
        reduced = []
        for r in work:
            rv = r.get(pivot_col)
            if rv:
                new = {}
                for col in r.keys() | pivot.keys():
                    val = r.get(col, 0) * pv - pivot.get(col, 0) * rv
                    if val:
                        new[col] = val
                g = 0
                for v in new.values():
                    g = gcd(g, abs(v))
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                if new:
                    reduced.append(new)
            else:
                reduced.append(r)
        work = reduced
    return rank


def median(values: list[float]) -> float:
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def kernel_times(count: int) -> list[float]:
    out = []
    for _ in range(count):
        a = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - a)
    return out


class Probe:
    """Runs ``kernel`` on SIGALRM every ``PERIOD_S`` between ``start`` and
    ``stop`` and converts wall-clock intervals into reference seconds."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (kernel start, kernel end)

    def _tick(self, signum=None, frame=None) -> None:
        a = time.perf_counter()
        kernel()
        self.ticks.append((a, time.perf_counter()))

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        cost = [b - a for a, b in self.ticks]
        self.local = [median(cost[max(0, i - SMOOTH):i + SMOOTH + 1])
                      for i in range(len(cost))]

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the program's work between t0 and t1."""
        ticks, local = self.ticks, self.local
        total = 0.0
        i = max(bisect.bisect_right(ticks, (t0, float("inf"))) - 1, 0)
        for j in range(i, len(ticks) - 1):
            (_, end0), (start1, _) = ticks[j], ticks[j + 1]
            if end0 >= t1:
                break
            span = min(start1, t1) - max(end0, t0)
            if span > 0:
                total += span / ((local[j] + local[j + 1]) / 2)
        return total * KERNEL_REF_S

    def stats(self) -> dict:
        cost = [b - a for a, b in self.ticks]
        return {"probes": len(cost), "probe_s": sum(cost), "kernel_median_s": median(cost),
                "kernel_min_s": min(cost), "kernel_max_s": max(cost)}
