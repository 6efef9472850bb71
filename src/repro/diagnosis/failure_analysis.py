"""Signature → root-cause failure analysis.

Combines the spatial signature categorization with per-cell verdicts to
produce the kind of report a failure-analysis engineer acts on: *what*
is wrong, *where*, and *which process step* to suspect.  The mapping
rules encode standard DRAM failure-analysis lore (cf. the paper's
references [1, 2] on automated failure analysis of repeated structures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.bitmap.signatures import Signature, SignatureKind, categorize
from repro.diagnosis.classifier import CellVerdict
from repro.errors import DiagnosisError


class RootCause(enum.Enum):
    """Suspected physical cause of one finding."""

    CAPACITOR_SHORT = "capacitor_dielectric_short"
    CAPACITOR_OPEN = "capacitor_open_or_under_floor"
    THIN_DIELECTRIC_SPOT = "locally_thin_capacitor_dielectric"
    DEPOSITION_TILT = "deposition_thickness_tilt"
    WORDLINE_DEFECT = "wordline_or_row_driver_defect"
    BITLINE_DEFECT = "bitline_or_column_defect"
    STORAGE_BRIDGE = "storage_node_bridge"
    PARTICLE_CLUSTER = "particle_or_scratch_cluster"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One root-caused anomaly group."""

    signature: Signature
    cause: RootCause
    dominant_verdict: CellVerdict

    def describe(self) -> str:
        """Human-readable one-liner."""
        stats = self.signature.stats
        return (
            f"{self.signature.kind.value:<13} {self.signature.size:>5} cells "
            f"@({stats.centroid[0]:.0f},{stats.centroid[1]:.0f}) -> {self.cause.value}"
        )


#: (signature kind, dominant verdict) → root cause rules.
_RULES: dict[tuple[SignatureKind, CellVerdict], RootCause] = {
    (SignatureKind.SINGLE_CELL, CellVerdict.SHORT): RootCause.CAPACITOR_SHORT,
    (SignatureKind.SINGLE_CELL, CellVerdict.OPEN_OR_UNDER): RootCause.CAPACITOR_OPEN,
    (SignatureKind.SINGLE_CELL, CellVerdict.UNDER_FLOOR): RootCause.CAPACITOR_OPEN,
    (SignatureKind.SINGLE_CELL, CellVerdict.LOW_CAP): RootCause.THIN_DIELECTRIC_SPOT,
    (SignatureKind.SINGLE_CELL, CellVerdict.HIGH_CAP): RootCause.THIN_DIELECTRIC_SPOT,
    (SignatureKind.SINGLE_CELL, CellVerdict.OVER_RANGE): RootCause.CAPACITOR_SHORT,
    (SignatureKind.PAIRED_CELLS, CellVerdict.OVER_RANGE): RootCause.STORAGE_BRIDGE,
    (SignatureKind.PAIRED_CELLS, CellVerdict.HIGH_CAP): RootCause.STORAGE_BRIDGE,
    # Adjacent pairs that do NOT read high are coincident point defects,
    # not bridges (a bridge couples the pair's readings upward).
    (SignatureKind.PAIRED_CELLS, CellVerdict.LOW_CAP): RootCause.THIN_DIELECTRIC_SPOT,
    (SignatureKind.PAIRED_CELLS, CellVerdict.SHORT): RootCause.CAPACITOR_SHORT,
    (SignatureKind.PAIRED_CELLS, CellVerdict.OPEN_OR_UNDER): RootCause.CAPACITOR_OPEN,
    (SignatureKind.ROW, CellVerdict.OPEN_OR_UNDER): RootCause.WORDLINE_DEFECT,
    (SignatureKind.ROW, CellVerdict.LOW_CAP): RootCause.WORDLINE_DEFECT,
    (SignatureKind.COLUMN, CellVerdict.OPEN_OR_UNDER): RootCause.BITLINE_DEFECT,
    (SignatureKind.COLUMN, CellVerdict.LOW_CAP): RootCause.BITLINE_DEFECT,
    (SignatureKind.CLUSTER, CellVerdict.LOW_CAP): RootCause.PARTICLE_CLUSTER,
    (SignatureKind.CLUSTER, CellVerdict.OPEN_OR_UNDER): RootCause.PARTICLE_CLUSTER,
    (SignatureKind.CLUSTER, CellVerdict.SHORT): RootCause.PARTICLE_CLUSTER,
}


class FailureAnalyzer:
    """Produce root-caused findings from verdicts.

    Parameters
    ----------
    line_fraction:
        Forwarded to :func:`repro.bitmap.signatures.categorize`.
    """

    def __init__(self, line_fraction: float = 0.6) -> None:
        self.line_fraction = line_fraction

    def _dominant_verdict(
        self, signature: Signature, verdicts: np.ndarray
    ) -> CellVerdict:
        counts: dict[CellVerdict, int] = {}
        for row, col in signature.cells:
            v = verdicts[row, col]
            counts[v] = counts.get(v, 0) + 1
        return max(counts, key=lambda k: counts[k])

    def analyze(self, verdicts: np.ndarray) -> list[Finding]:
        """Root-cause every anomaly group in a verdict matrix.

        ``verdicts`` is the object matrix from
        :meth:`~repro.diagnosis.classifier.CellClassifier.classify_all`;
        cells not IN_SPEC form the anomaly mask.
        """
        verdicts = np.asarray(verdicts, dtype=object)
        if verdicts.ndim != 2:
            raise DiagnosisError("verdicts must be a 2-D matrix")
        mask = verdicts != CellVerdict.IN_SPEC
        if not mask.any():
            return []
        findings = []
        for signature in categorize(mask, self.line_fraction):
            dominant = self._dominant_verdict(signature, verdicts)
            cause = _RULES.get((signature.kind, dominant), RootCause.UNKNOWN)
            findings.append(
                Finding(signature=signature, cause=cause, dominant_verdict=dominant)
            )
        return findings

    def report(self, findings: list[Finding]) -> str:
        """Render findings as a text report."""
        if not findings:
            return "no anomalies found"
        return "\n".join(f.describe() for f in findings)
