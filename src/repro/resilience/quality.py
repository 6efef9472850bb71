"""Per-cell measurement quality: the graceful-degradation vocabulary.

The paper's flow earns its keep on *defective* silicon — a short, an
open or a stuck plate must yield a per-cell code in the analog bitmap,
not abort the scan.  When a solver rung fails and a fallback produces
the value instead, the result is still a number, but a number the
downstream consumer (calibration, drift charts, repair allocation)
should weigh differently.  :class:`CellQuality` is that weight:

==========  =====  ====================================================
quality     code   meaning
==========  =====  ====================================================
GOOD        0      produced by the primary tier, no fallback involved
DEGRADED    1      a fallback rung produced the value (gmin/source
                   stepping in the DC ladder, closed-form substitution
                   for a failed engine cell) — usable, flagged
FAILED      2      every rung failed; the value is a placeholder
                   (code 0, V_GS 0.0) and must not enter statistics
==========  =====  ====================================================

Quality planes ride along the scan planes as a ``(rows, cols)`` uint8
array — zero for clean scans — and persist, like every plane, in the
plane container (:mod:`repro.resilience.planes`) at one byte a cell.
"""

from __future__ import annotations

import enum

import numpy as np


class CellQuality(enum.IntEnum):
    """Quality of one measured cell value (ordered worst-last)."""

    GOOD = 0
    DEGRADED = 1
    FAILED = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


#: dtype of quality planes (one byte per cell).
QUALITY_DTYPE = np.uint8


def quality_plane(shape: tuple[int, int]) -> np.ndarray:
    """A fresh all-GOOD quality plane of the given shape."""
    return np.zeros(shape, dtype=QUALITY_DTYPE)


def quality_counts(plane: np.ndarray) -> dict[str, int]:
    """``{"good": n, "degraded": n, "failed": n}`` for a quality plane."""
    plane = np.asarray(plane)
    return {
        quality.name.lower(): int((plane == int(quality)).sum())
        for quality in CellQuality
    }


def worst_quality(plane: np.ndarray) -> CellQuality:
    """The worst quality present in ``plane`` (GOOD for empty planes)."""
    plane = np.asarray(plane)
    if plane.size == 0:
        return CellQuality.GOOD
    return CellQuality(int(plane.max()))
