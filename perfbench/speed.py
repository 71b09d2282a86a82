"""The machine's speed, measured between ops, to scale timings to a fixed speed.

On a shared host the CPU speed one process gets drifts by a quarter or more
over seconds to minutes, because other tenants load the same cores and
caches. Raw op times follow that drift, and so do the medians of whole runs.
So the benchmark runs a fixed reference kernel between ops and reports each
op's time scaled to the speed at which the kernel takes `REFERENCE_S`:

    scaled = raw * REFERENCE_S / kernel time measured around the op

The kernel does the same kind of work as the library (exact elimination over
`Fraction` in dict rows) but shares no code with it, so a change to the
library moves the scaled times exactly as it moves the raw ones, while the
host's drift cancels. Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# The kernel's time at the reference speed; scaled timings are in seconds at
# that speed. On a 2-core x86-64 VM with CPython 3.11 the kernel takes
# 0.14-0.15 s when the host is quiet.
REFERENCE_S = 0.15


def _eliminate(rows: list) -> int:
    pivots = {}
    for row in rows:
        row = {col: Fraction(v) for col, v in row.items()}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            factor = row[col] / pivot[col]
            for k, v in pivot.items():
                value = row.get(k, 0) - factor * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def _matrix() -> list:
    rng = random.Random(7)
    return [{j: rng.choice((-1, 1)) for j in rng.sample(range(60), 6)} for _ in range(70)]


MATRIX = _matrix()
PASSES = 2
RANK = _eliminate(MATRIX)


def kernel() -> float:
    """Seconds for one run of the reference kernel, with the collector off so
    the heap the library left behind does not change the kernel's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ranks = [_eliminate(MATRIX) for _ in range(PASSES)]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if ranks != [RANK] * PASSES:
        raise RuntimeError(f"reference kernel gave ranks {ranks}, expected {RANK}")
    return elapsed


class Speedometer:
    """Kernel runs between ops, at least `period` seconds apart.

    `mark()` runs the kernel if the last run is older than `period`. An op
    is scaled by the mean of the two kernel runs around it and of the next
    one on either side: one run of a fraction of a second is noisier than
    the drift it tracks.
    """

    def __init__(self, period: float):
        self.period = period
        self.kernels = []
        self.raw = []
        self.before = []  # for each op, how many kernel runs preceded it
        self._last = 0.0
        self.mark(force=True)

    def mark(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.period:
            self.kernels.append(kernel())
            self._last = time.perf_counter()

    def add(self, raw: float) -> None:
        self.raw.append(raw)
        self.before.append(len(self.kernels))

    def close(self) -> None:
        """Run the kernel once more if the last ops have no run after them."""
        if self.before and self.before[-1] == len(self.kernels):
            self.mark(force=True)

    def scaled(self) -> list:
        return [
            raw * REFERENCE_S / statistics.fmean(self.kernels[max(0, k - 2): k + 2])
            for raw, k in zip(self.raw, self.before)
        ]
