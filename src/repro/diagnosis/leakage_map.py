"""Per-cell leakage extraction: the analog bitmap's second dividend.

The paper stops at capacitance, but its bitmap composes with the
classical retention screen into a *leakage bitmap*: a cell that retains
a '1' for at least ``t`` holds ``I ≤ C·(V_write − V_min)/t``, and one
that fails by ``t`` has ``I ≥ C·(V_write − V_min)/t``.  With the
per-cell ``C`` from the measurement structure (instead of the nominal
value every classical flow assumes) and a ladder of pause times, each
cell gets a two-sided leakage-current bound — turning pass/fail
retention data into a parametric junction-quality map.

This matters diagnostically: a retention fail on a *small* capacitor is
a capacitor-module problem; the same fail time on a *full-size*
capacitor is a junction-leakage problem.  Classical flows cannot tell
them apart; the combined map can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.march import retention_test
from repro.bitmap.analog import AnalogBitmap
from repro.edram.operations import ArrayOperations
from repro.errors import DiagnosisError


@dataclass(frozen=True)
class LeakageBounds:
    """Per-cell leakage-current bounds, amperes.

    ``lower`` is 0 where the cell never failed (only an upper bound is
    known); ``upper`` is ``inf`` where the cell failed even the shortest
    pause.  NaN marks cells whose capacitance was out of measurement
    range (no usable C estimate).
    """

    lower: np.ndarray
    upper: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols)."""
        return self.lower.shape  # type: ignore[return-value]

    def midpoint(self) -> np.ndarray:
        """Geometric midpoint estimate where both bounds are finite."""
        with np.errstate(invalid="ignore"):
            both = (self.lower > 0) & np.isfinite(self.upper)
            out = np.full(self.lower.shape, np.nan)
            out[both] = np.sqrt(self.lower[both] * self.upper[both])
        return out

    def leaky_cells(self, threshold: float) -> list[tuple[int, int]]:
        """Cells whose *lower* bound exceeds ``threshold`` (provably leaky)."""
        if threshold <= 0:
            raise DiagnosisError("threshold must be positive")
        rows, cols = np.nonzero(self.lower > threshold)
        return [(int(r), int(c)) for r, c in zip(rows, cols)]


def retention_ladder(
    ops: ArrayOperations, pauses: list[float], value: bool = True
) -> np.ndarray:
    """First failing pause index per cell (len(pauses) = never failed).

    Runs one write-pause-read screen per pause, shortest first.  Returns
    an int matrix: entry ``k`` means the cell passed pauses[0..k-1] and
    failed pauses[k]; ``len(pauses)`` means it survived all of them.
    """
    if not pauses:
        raise DiagnosisError("need at least one pause")
    if any(p <= 0 for p in pauses) or any(
        a >= b for a, b in zip(pauses, pauses[1:])
    ):
        raise DiagnosisError("pauses must be positive and strictly increasing")
    shape = (ops.array.rows, ops.array.cols)
    first_fail = np.full(shape, len(pauses), dtype=int)
    for k, pause in enumerate(pauses):
        bitmap = retention_test(ops, pause, value=value)
        newly = bitmap.fails & (first_fail == len(pauses))
        first_fail[newly] = k
    return first_fail


def extract_leakage(
    bitmap: AnalogBitmap,
    first_fail: np.ndarray,
    pauses: list[float],
    v_write: float,
    v_min: float,
) -> LeakageBounds:
    """Combine a capacitance bitmap with a retention ladder.

    For a cell of measured capacitance C with charge budget
    ``Q = C·(v_write − v_min)``:

    - passing a pause ``t`` means the droop ``I·t`` stayed under the
      budget, so ``I ≤ Q/t``; the longest *passed* pause
      (``pauses[k−1]``) gives the tightest **upper** bound;
    - failing a pause ``t`` means the droop exceeded the budget, so
      ``I ≥ Q/t``; the shortest *failed* pause (``pauses[k]``) gives
      the tightest **lower** bound.
    """
    if v_min >= v_write:
        raise DiagnosisError("need v_min < v_write")
    first_fail = np.asarray(first_fail)
    if first_fail.shape != bitmap.shape:
        raise DiagnosisError(
            f"ladder shape {first_fail.shape} != bitmap {bitmap.shape}"
        )
    budget = bitmap.estimates * (v_write - v_min)  # NaN where out of range
    t = np.asarray(pauses, dtype=float)
    failed, passed = first_fail < len(pauses), first_fail > 0
    lower = np.where(failed, budget / t[np.where(failed, first_fail, 0)], 0.0)
    upper = np.where(passed, budget / t[np.where(passed, first_fail - 1, 0)], np.inf)
    unusable = ~np.isfinite(budget)
    lower[unusable] = upper[unusable] = np.nan
    return LeakageBounds(lower=lower, upper=upper)
