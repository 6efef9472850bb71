"""The per-cell verdict loops, kept as a reference.

Diagnosis used to screen a code plane one cell at a time: the analog
bitmap called :meth:`SpecificationWindow.classify` per cell, the
classifier resolved every cell through ``classify_cell`` (taking the
macro neighbours and the plane's median for code 0), and the failure
analyzer, the crosstalk compensation and the pipeline report built their
masks and counts with ``np.vectorize`` and Python loops over the cells.
``src/`` now does each as a per-code table lookup plus plane masks;
``tests/property/test_verdict_oracle.py`` pins it against the loops
below, which share with ``src/`` only the per-code rule the tables are
built from (:meth:`SpecificationWindow.classify`).
"""

from __future__ import annotations

import numpy as np

from repro.calibration.window import SpecificationWindow, SpecVerdict
from repro.diagnosis.classifier import CellVerdict


def window_classify(window: SpecificationWindow, codes: np.ndarray) -> np.ndarray:
    """``AnalogBitmap.classify``: one ``window.classify`` call per cell."""
    out = np.empty(codes.shape, dtype="<U16")
    for r in range(codes.shape[0]):
        for c in range(codes.shape[1]):
            out[r, c] = window.classify(int(codes[r, c])).value
    return out


def out_of_spec(window: SpecificationWindow, codes: np.ndarray) -> np.ndarray:
    """``AnalogBitmap.out_of_spec``: every cell whose verdict is not PASS."""
    return window_classify(window, codes) != SpecVerdict.PASS.value


def classify_cell(
    codes: np.ndarray,
    window: SpecificationWindow,
    macro_cols: int,
    short_code_lift: float,
    row: int,
    col: int,
    digital_fail: object,
    median: float | None = None,
) -> CellVerdict:
    """One cell's verdict; ``median`` is taken here when ``None``."""
    code = int(codes[row, col])
    verdict = window.classify(code)
    if verdict is SpecVerdict.PASS:
        return CellVerdict.IN_SPEC
    if verdict is SpecVerdict.FAIL_LOW:
        return CellVerdict.LOW_CAP
    if verdict is SpecVerdict.FAIL_HIGH:
        return CellVerdict.HIGH_CAP
    if verdict is SpecVerdict.OVER_RANGE:
        return CellVerdict.OVER_RANGE
    # Code 0: disambiguate with the macro-neighbour fingerprint.
    start = (col // macro_cols) * macro_cols
    neighbours = [
        int(codes[row, c]) for c in range(start, start + macro_cols) if c != col
    ]
    if median is None:
        median = float(np.median(codes))
    if neighbours and min(neighbours) >= median + short_code_lift:
        return CellVerdict.SHORT
    if digital_fail is False:
        return CellVerdict.UNDER_FLOOR
    return CellVerdict.OPEN_OR_UNDER


def classify_all(
    codes: np.ndarray,
    window: SpecificationWindow,
    macro_cols: int,
    short_code_lift: float,
    digital_fails: np.ndarray | None,
) -> np.ndarray:
    """``CellClassifier.classify_all``: the median once, then every cell."""
    rows, cols = codes.shape
    out = np.empty((rows, cols), dtype=object)
    median = float(np.median(codes))
    for r in range(rows):
        for c in range(cols):
            fail = None if digital_fails is None else bool(digital_fails[r, c])
            out[r, c] = classify_cell(
                codes, window, macro_cols, short_code_lift, r, c, fail, median
            )
    return out


def anomaly_mask(verdicts: np.ndarray) -> np.ndarray:
    """``FailureAnalyzer.analyze``'s mask: every cell not IN_SPEC."""
    return np.vectorize(lambda v: v is not CellVerdict.IN_SPEC)(verdicts)


def short_mask(verdicts: np.ndarray) -> np.ndarray:
    """``compensate_estimates``' mask: every SHORT cell."""
    return np.vectorize(lambda v: v is CellVerdict.SHORT)(verdicts)


def verdict_counts(verdicts: np.ndarray) -> dict[CellVerdict, int]:
    """``CellClassifier.verdict_counts``: a dict in first-appearance order."""
    counts: dict[CellVerdict, int] = {}
    for verdict in verdicts.ravel():
        counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def summary_counts(verdicts: np.ndarray) -> tuple[int, str]:
    """``PipelineReport.summary``'s anomaly count and verdicts line."""
    counts = verdict_counts(verdicts)
    anomalies = sum(n for v, n in counts.items() if v is not CellVerdict.IN_SPEC)
    line = ", ".join(
        f"{v.value}={n}" for v, n in sorted(counts.items(), key=lambda kv: -kv[1])
    )
    return anomalies, line


def dict_counts(verdicts: np.ndarray) -> dict[str, int]:
    """``PipelineReport.to_dict``'s ``verdicts`` entry."""
    counts: dict[str, int] = {}
    for verdict in verdicts.ravel():
        counts[verdict.value] = counts.get(verdict.value, 0) + 1
    return counts
