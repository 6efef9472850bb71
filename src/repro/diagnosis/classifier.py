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


#: The cell verdict of each window verdict; classify_all refines code 0.
_FROM_WINDOW = {
    SpecVerdict.PASS: CellVerdict.IN_SPEC,
    SpecVerdict.FAIL_LOW: CellVerdict.LOW_CAP,
    SpecVerdict.FAIL_HIGH: CellVerdict.HIGH_CAP,
    SpecVerdict.OVER_RANGE: CellVerdict.OVER_RANGE,
    SpecVerdict.AMBIGUOUS_ZERO: CellVerdict.OPEN_OR_UNDER,
}


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

    def classify_cell(self, row: int, col: int, digital_fail: bool | None = None) -> CellVerdict:
        """One cell of :meth:`classify_all`; ``digital_fail is False`` refines code 0."""
        fails = None if digital_fail is None else np.full(self.bitmap.shape, digital_fail is not False)
        return self.classify_all(fails)[row, col]

    def classify_all(self, digital_fails: np.ndarray | None = None) -> np.ndarray:
        """Verdict matrix for the whole bitmap (dtype = object of enums).

        A per-code table lookup, then the code-0 split: SHORT when every
        other cell of the macro-row segment reads at least the median code
        plus ``short_code_lift`` (a code-0 cell is its segment's minimum,
        so that is the second-smallest code; a one-column macro is never
        SHORT), else UNDER_FLOOR when the cell passes the digital test.
        """
        rows, cols = self.bitmap.shape
        if digital_fails is not None:
            digital_fails = np.asarray(digital_fails)
            if digital_fails.shape != (rows, cols):
                raise DiagnosisError(
                    f"digital_fails shape {digital_fails.shape} != bitmap {self.bitmap.shape}"
                )
        codes = self.window.code_index(self.bitmap.codes)
        out = np.array([_FROM_WINDOW[v] for v in self.window.table], dtype=object)[codes]
        zero = codes == 0
        if zero.any() and self.macro_cols > 1:
            segments = codes.reshape(rows, cols // self.macro_cols, self.macro_cols)
            others = np.partition(segments, 1, axis=2)[..., 1]
            lifted = others >= float(np.median(self.bitmap.codes)) + self.short_code_lift
            short = zero & np.repeat(lifted, self.macro_cols, axis=1)
            out[short] = CellVerdict.SHORT
            zero &= ~short
        if digital_fails is not None:
            out[zero & ~digital_fails.astype(bool)] = CellVerdict.UNDER_FLOOR
        return out

    @staticmethod
    def verdict_counts(verdicts: np.ndarray) -> dict[CellVerdict, int]:
        """Cells per verdict, keyed in row-major order of first appearance."""
        flat = np.asarray(verdicts, dtype=object).ravel()
        first, counts = {}, {}
        for verdict in CellVerdict:
            hit = flat == verdict
            if hit.any():
                first[verdict], counts[verdict] = int(hit.argmax()), int(hit.sum())
        if sum(counts.values()) != flat.size:
            raise DiagnosisError("the verdict matrix holds a value that is not a CellVerdict")
        return {verdict: counts[verdict] for verdict in sorted(first, key=first.__getitem__)}
