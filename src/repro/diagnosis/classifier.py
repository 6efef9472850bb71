"""Per-cell defect classification from the analog bitmap.

The paper notes that code 0 is three-way ambiguous: "The capacitor value
is under 10 fF; the capacitor is shorted; the capacitor behaves like an
open."  The classifier resolves much of that ambiguity with context the
analog bitmap itself provides:

- A **dielectric short** couples the shorted cell's bitline capacitance
  onto the plate, so the *same-row neighbours inside the macro* read a
  visibly elevated code.  No other code-0 cause does that.
- An **open** (or deep-low) capacitor leaves the neighbours untouched.

Digital test results, when supplied, refine things further (a code-0
cell that still *reads and writes* correctly cannot be open — it is a
below-floor capacitor that happens to retain enough signal).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.window import SpecificationWindow, SpecVerdict
from repro.errors import DiagnosisError


class CellVerdict(enum.Enum):
    """Refined per-cell classification."""

    IN_SPEC = "in_spec"
    LOW_CAP = "low_cap"
    HIGH_CAP = "high_cap"
    SHORT = "short"
    OPEN_OR_UNDER = "open_or_under"  # code 0 without a short fingerprint
    UNDER_FLOOR = "under_floor"  # code 0 but digitally functional
    OVER_RANGE = "over_range"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CellClassifier:
    """Classify every cell of an analog bitmap.

    Parameters
    ----------
    bitmap:
        The calibrated analog bitmap.
    window:
        Specification window for pass/parametric verdicts.
    macro_cols:
        Macro width of the scanned array (needed to know which
        neighbours share a plate with a candidate short).
    short_code_lift:
        Minimum code elevation of same-row macro neighbours (relative to
        the array's median code) for a code-0 cell to be called SHORT.
    """

    def __init__(
        self,
        bitmap: AnalogBitmap,
        window: SpecificationWindow,
        macro_cols: int,
        short_code_lift: int = 2,
    ) -> None:
        if macro_cols < 1:
            raise DiagnosisError(f"macro_cols must be >= 1, got {macro_cols}")
        if bitmap.shape[1] % macro_cols != 0:
            raise DiagnosisError(
                f"macro_cols {macro_cols} does not divide bitmap width {bitmap.shape[1]}"
            )
        self.bitmap = bitmap
        self.window = window
        self.macro_cols = macro_cols
        self.short_code_lift = short_code_lift

    def _row_neighbour_codes(self, row: int, col: int) -> list[int]:
        """Codes of the same-row cells sharing the macro plate."""
        start = (col // self.macro_cols) * self.macro_cols
        return [
            int(self.bitmap.codes[row, c])
            for c in range(start, start + self.macro_cols)
            if c != col
        ]

    def classify_cell(
        self, row: int, col: int, digital_fail: bool | None = None
    ) -> CellVerdict:
        """Verdict for one cell; ``digital_fail`` refines code-0 cases."""
        return self._classify(row, col, digital_fail, None)

    def _classify(
        self, row: int, col: int, digital_fail: bool | None, median: float | None
    ) -> CellVerdict:
        """:meth:`classify_cell` with the plane's median code precomputed.

        ``median`` is ``None`` to take it here, only if the cell reads
        code 0; :meth:`classify_all` takes it once for the whole plane.
        """
        code = int(self.bitmap.codes[row, col])
        verdict = self.window.classify(code)
        if verdict is SpecVerdict.PASS:
            return CellVerdict.IN_SPEC
        if verdict is SpecVerdict.FAIL_LOW:
            return CellVerdict.LOW_CAP
        if verdict is SpecVerdict.FAIL_HIGH:
            return CellVerdict.HIGH_CAP
        if verdict is SpecVerdict.OVER_RANGE:
            return CellVerdict.OVER_RANGE
        # Code 0: disambiguate with the macro-neighbour fingerprint.
        neighbours = self._row_neighbour_codes(row, col)
        if median is None:
            median = float(np.median(self.bitmap.codes))
        if neighbours and min(neighbours) >= median + self.short_code_lift:
            return CellVerdict.SHORT
        if digital_fail is False:
            return CellVerdict.UNDER_FLOOR
        return CellVerdict.OPEN_OR_UNDER

    def classify_all(self, digital_fails: np.ndarray | None = None) -> np.ndarray:
        """Verdict matrix for the whole bitmap (dtype = object of enums)."""
        rows, cols = self.bitmap.shape
        if digital_fails is not None:
            digital_fails = np.asarray(digital_fails)
            if digital_fails.shape != (rows, cols):
                raise DiagnosisError(
                    f"digital_fails shape {digital_fails.shape} != bitmap {self.bitmap.shape}"
                )
        out = np.empty((rows, cols), dtype=object)
        median = float(np.median(self.bitmap.codes))
        for r in range(rows):
            for c in range(cols):
                fail = None if digital_fails is None else bool(digital_fails[r, c])
                out[r, c] = self._classify(r, c, fail, median)
        return out

    def verdict_counts(self, verdicts: np.ndarray) -> dict[CellVerdict, int]:
        """Histogram of a verdict matrix."""
        counts: dict[CellVerdict, int] = {}
        for verdict in verdicts.ravel():
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts
