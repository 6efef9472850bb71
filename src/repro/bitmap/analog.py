"""The analog bitmap: per-cell capacitance codes and estimates.

Wraps a :class:`~repro.measure.scan.ScanResult` together with the abacus
that calibrates it, exposing the per-cell capacitance estimates, range
masks, population statistics and outlier queries that the diagnosis
layer builds on.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.calibration.abacus import Abacus
from repro.calibration.window import SpecificationWindow, SpecVerdict
from repro.errors import DiagnosisError
from repro.measure.scan import ScanResult


class AnalogBitmap:
    """Calibrated analog bitmap of one array scan.

    Parameters
    ----------
    scan:
        Raw scan result (codes per cell).
    abacus:
        The calibration map matching the scan's structure design and
        macro geometry.
    """

    def __init__(self, scan: ScanResult, abacus: Abacus) -> None:
        if scan.num_steps != abacus.num_steps:
            raise DiagnosisError(
                f"scan depth {scan.num_steps} != abacus depth {abacus.num_steps}"
            )
        self.scan = scan
        self.abacus = abacus
        self.codes = scan.codes

    @cached_property
    def estimates(self) -> np.ndarray:
        """Per-cell capacitance estimates, farads (NaN out of range).

        Built on first read: a recorded scan's bitmap scalars never
        need it.
        """
        return self.abacus.estimate_matrix(self.codes)

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the bitmap."""
        return self.scan.shape

    @property
    def under_range(self) -> np.ndarray:
        """Cells at code 0 (ambiguous: below floor / short / open)."""
        return self.codes == 0

    @property
    def over_range(self) -> np.ndarray:
        """Cells at the full-scale code."""
        return self.codes == self.scan.num_steps

    @property
    def in_range(self) -> np.ndarray:
        """Cells whose code inverts to a capacitance estimate."""
        return ~(self.under_range | self.over_range)

    def out_of_spec(self, window: SpecificationWindow) -> np.ndarray:
        """Boolean mask of cells failing the given specification window."""
        fails = np.array([verdict is not SpecVerdict.PASS for verdict in window.table])
        return fails[window.code_index(self.codes)]

    def classify(self, window: SpecificationWindow) -> np.ndarray:
        """Per-cell :class:`SpecVerdict` values (as strings), one table lookup."""
        values = np.array([verdict.value for verdict in window.table], dtype="<U16")
        return values[window.code_index(self.codes)]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def mean_capacitance(self) -> float:
        """Mean in-range capacitance estimate, farads."""
        values = self.estimates[self.in_range]
        if values.size == 0:
            raise DiagnosisError("no in-range cells to average")
        return float(values.mean())

    def std_capacitance(self) -> float:
        """Standard deviation of in-range estimates, farads."""
        values = self.estimates[self.in_range]
        if values.size == 0:
            raise DiagnosisError("no in-range cells")
        return float(values.std())

    def code_histogram(self) -> dict[int, int]:
        """Cells per code value, dense over the full converter scale."""
        return self.scan.code_histogram()

    def outliers(self, n_sigma: float = 3.0) -> np.ndarray:
        """In-range cells deviating more than ``n_sigma`` from the mean.

        Out-of-range cells (codes 0 / full scale) are *also* flagged —
        they are outliers by definition.
        """
        if n_sigma <= 0:
            raise DiagnosisError(f"n_sigma must be positive, got {n_sigma}")
        mask = ~self.in_range
        values = self.estimates[self.in_range]
        if values.size >= 2 and values.std() > 0:
            mean, std = values.mean(), values.std()
            with np.errstate(invalid="ignore"):
                deviant = np.abs(self.estimates - mean) > n_sigma * std
            mask = mask | np.nan_to_num(deviant, nan=False)
        return mask

    def row_profile(self) -> np.ndarray:
        """Mean in-range estimate per row (NaN for all-out-of-range rows)."""
        with np.errstate(invalid="ignore"):
            masked = np.where(self.in_range, self.estimates, np.nan)
            return np.nanmean(masked, axis=1)

    def column_profile(self) -> np.ndarray:
        """Mean in-range estimate per column."""
        with np.errstate(invalid="ignore"):
            masked = np.where(self.in_range, self.estimates, np.nan)
            return np.nanmean(masked, axis=0)
