"""Process-module monitoring from analog bitmaps.

The paper's motivation: "the specific process of DRAM capacitor and the
low capacitance value (~30 fF) of this device induce problems of process
monitoring".  With per-cell capacitance readouts, the capacitor module
becomes statistically observable: population mean/σ, process capability
(Cpk) against the spec, spatial tilt, and drift across a sequence of
dies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmap.analog import AnalogBitmap
from repro.bitmap.signatures import GradientReport, fit_gradient
from repro.errors import DiagnosisError
from repro.units import to_fF


@dataclass(frozen=True)
class ProcessReport:
    """Statistical snapshot of one die's capacitor module.

    All capacitances in farads.
    """

    mean: float
    sigma: float
    cpk: float
    in_range_fraction: float
    gradient: GradientReport

    def summary(self) -> str:
        """One-line textual summary."""
        return (
            f"mean {to_fF(self.mean):.2f} fF, sigma {to_fF(self.sigma):.2f} fF, "
            f"Cpk {self.cpk:.2f}, in-range {100 * self.in_range_fraction:.1f} %, "
            f"tilt {'SIGNIFICANT' if self.gradient.significant else 'none'} "
            f"({to_fF(self.gradient.extent):.2f} fF corner-to-corner)"
        )


class ProcessMonitor:
    """Compute process health metrics from analog bitmaps.

    Parameters
    ----------
    spec_lo, spec_hi:
        Capacitance specification limits, farads.
    """

    def __init__(self, spec_lo: float, spec_hi: float) -> None:
        if not 0 < spec_lo < spec_hi:
            raise DiagnosisError(f"need 0 < spec_lo < spec_hi, got [{spec_lo}, {spec_hi}]")
        self.spec_lo = spec_lo
        self.spec_hi = spec_hi

    def report(self, bitmap: AnalogBitmap) -> ProcessReport:
        """Full statistical report for one die."""
        values = bitmap.estimates[bitmap.in_range]
        if values.size < 3:
            raise DiagnosisError("too few in-range cells for a process report")
        mean = float(values.mean())
        sigma = float(values.std())
        if sigma == 0.0:
            cpk = float("inf")
        else:
            cpk = min(self.spec_hi - mean, mean - self.spec_lo) / (3.0 * sigma)
        return ProcessReport(
            mean=mean,
            sigma=sigma,
            cpk=float(cpk),
            in_range_fraction=float(bitmap.in_range.mean()),
            gradient=fit_gradient(bitmap.estimates),
        )

    # ------------------------------------------------------------------
    # Lot-level tracking
    # ------------------------------------------------------------------

    def drift_series(self, bitmaps: list[AnalogBitmap]) -> np.ndarray:
        """Mean capacitance per die across a lot sequence, farads."""
        if not bitmaps:
            raise DiagnosisError("empty bitmap sequence")
        return np.array([self.report(b).mean for b in bitmaps])

    def detect_drift(
        self, bitmaps: list[AnalogBitmap], threshold_sigma: float = 2.0
    ) -> bool:
        """True when the lot's mean trend exits the control band.

        The control band is ``threshold_sigma`` times the within-die σ of
        the first die, centred on the first die's mean — a minimal
        Shewhart-style rule sufficient for the monitoring bench.
        """
        if len(bitmaps) < 2:
            raise DiagnosisError("need at least 2 dies to detect drift")
        first = self.report(bitmaps[0])
        means = self.drift_series(bitmaps)
        band = threshold_sigma * first.sigma
        return bool(np.any(np.abs(means - first.mean) > band))

    def samples_needed(
        self,
        drift_to_detect: float,
        cell_sigma: float,
        confidence_sigma: float = 3.0,
    ) -> int:
        """Sparse-monitor sample size to resolve a mean drift.

        Detecting a mean shift of ``drift_to_detect`` (farads) against
        per-cell spread ``cell_sigma`` at ``confidence_sigma`` standard
        errors needs ``n ≥ (confidence_sigma·cell_sigma/drift)²`` — the
        planning input for :meth:`BISTController.monitor`'s fraction.
        """
        if drift_to_detect <= 0 or cell_sigma <= 0:
            raise DiagnosisError("drift and sigma must be positive")
        if confidence_sigma <= 0:
            raise DiagnosisError("confidence_sigma must be positive")
        import math

        return max(2, math.ceil((confidence_sigma * cell_sigma / drift_to_detect) ** 2))

    def failing_fraction(self, bitmap: AnalogBitmap) -> float:
        """Fraction of cells whose estimate falls outside the spec.

        Out-of-range cells count as failing (their value is provably
        outside any spec inside the measurable range).
        """
        est = bitmap.estimates  # NaN out of range: both comparisons False
        bad = ~bitmap.in_range | (est < self.spec_lo) | (est > self.spec_hi)
        return float(bad.mean())
