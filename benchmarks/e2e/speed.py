"""Machine-speed probe: a fixed reference op timed between the program's ops.

On a host shared with other tenants, machine speed drifts by tens of
percent over tens of seconds as their load comes and goes, and CPU time
drifts with wall time, so raw timings of the same code spread far wider
across runs than any useful regression bound.  The reference op is a
fixed mix of the kinds of work the workloads do (large numpy arrays,
zlib compression, interpreter loops, many small numpy calls), independent
of the program under test.  Timed beside each measured interval, it
gives the interval's speed factor ``REF_SECONDS / reference wall
seconds``, and the benchmark reports every time in reference-speed
seconds: wall seconds times that factor.  The reference allocates no
containers the garbage collector tracks, so its time does not depend on
the program's heap.
"""

from __future__ import annotations

import math
import zlib
from time import perf_counter

import numpy as np

#: Median wall seconds of one reference pass on the 2-vCPU host the
#: benchmark was defined on; only scales the reported numbers (it
#: cancels in every comparison).
REF_SECONDS = 0.038
#: Minimum wall seconds between reference passes; an interval is
#: normalized by the mean of the passes just before and just after it.
SAMPLE_EVERY = 0.25


class _Point:
    __slots__ = ("x",)

    def __init__(self, x: float) -> None:
        self.x = x

    def scaled(self, y: float) -> float:
        return self.x * y + 1.0


class Reference:
    """The fixed reference work, with its inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.big = rng.random(1_000_000)
        self.raw = self.big.tobytes()[:400_000]
        self.small = rng.random((16, 8))
        self.points = [_Point(float(i)) for i in range(2000)]

    def seconds(self) -> float:
        """Wall seconds of one pass."""
        start = perf_counter()
        total = float(np.sort(self.big[:300_000])[0])
        total += float(np.sqrt(self.big * 2.0 + 1.0).sum())
        total += len(zlib.compress(self.raw, 6))
        for _ in range(40):
            for point in self.points:
                total += point.scaled(1.5) if point.x > 3 else math.sqrt(point.x)
        for _ in range(3000):
            total += float((self.small * 2.0 + self.small).sum(axis=1)[0])
        seconds = perf_counter() - start
        if not math.isfinite(total):  # keeps the work observable
            raise ArithmeticError("reference work overflowed")
        return seconds


class SpeedProbe:
    """Speed factors for a sequence of measured intervals.

    Call :meth:`record` right after each interval ends; it runs a
    reference pass when ``SAMPLE_EVERY`` has passed since the last one.
    :meth:`flush` runs a final pass so every interval has its factor.
    """

    def __init__(self) -> None:
        self._reference = Reference()
        self._last = self._reference.seconds()
        self._last_at = perf_counter()
        self._pending: list[int] = []
        #: Per recorded interval: ``REF_SECONDS`` / mean bracketing
        #: reference seconds (NaN until the pass after it has run).
        self.factors: list[float] = []
        #: Wall seconds of every reference pass.
        self.passes: list[float] = [self._last]

    def record(self) -> None:
        self._pending.append(len(self.factors))
        self.factors.append(math.nan)
        if perf_counter() - self._last_at >= SAMPLE_EVERY:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        seconds = self._reference.seconds()
        factor = REF_SECONDS / ((self._last + seconds) / 2)
        for index in self._pending:
            self.factors[index] = factor
        self._pending.clear()
        self.passes.append(seconds)
        self._last, self._last_at = seconds, perf_counter()
