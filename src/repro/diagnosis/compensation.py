"""Crosstalk-compensated joint estimation (extension).

The abacus decodes each cell *assuming nominal neighbours*, but the
measurement physics couples plate-mates: each reading is

    X_t = C_t + C_pp + Σ_{row mates j} series(C_j, C_BL + C_js)
              + Σ_{off-row k} series(C_k, C_js)

so a defective neighbour biases C_t (an open row-mate reads ≈ −13 fF
apparent on 64-row bitlines; a short reads high by its coupled bitline).
Since the coupling terms are *small* relative to C_t, the joint system
inverts by fixed-point iteration: decode everything with the nominal
assumption, recompute every cell's background from its mates' current
estimates, re-subtract, repeat.  Three iterations converge to the
quantization floor.

Defect handling uses the measurement itself: code-0 cells are treated as
opens (no coupling) unless the classifier called them SHORT (full
bitline coupling); full-scale cells contribute their range ceiling.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.design import nominal_background
from repro.diagnosis.classifier import CellVerdict
from repro.edram.array import EDRAMArray
from repro.errors import DiagnosisError


def _series(a: np.ndarray | float, b: float) -> np.ndarray | float:
    total = a + b
    return np.where(total > 0, a * b / np.where(total > 0, total, 1.0), 0.0)


def compensate_estimates(
    bitmap: AnalogBitmap,
    array: EDRAMArray,
    verdicts: np.ndarray | None = None,
    iterations: int = 4,
) -> np.ndarray:
    """Jointly re-invert a bitmap, compensating plate-mate coupling.

    Parameters
    ----------
    bitmap:
        The decoded bitmap (provides codes and abacus).
    array:
        The scanned array (provides geometry — *not* the true
        capacitances; those stay unknown, as on silicon).
    verdicts:
        Optional classifier output; used to treat SHORT cells'
        coupling correctly.  Without it, code-0 cells are assumed open.
    iterations:
        Fixed-point sweeps (converges in 2–3).

    Returns the compensated estimate matrix in farads (NaN where the
    cell itself is out of range).
    """
    if iterations < 1:
        raise DiagnosisError("iterations must be >= 1")
    if bitmap.shape != (array.rows, array.cols):
        raise DiagnosisError(
            f"bitmap {bitmap.shape} does not match array "
            f"{(array.rows, array.cols)}"
        )
    tech = array.tech
    structure = bitmap.abacus.structure
    creft = structure.c_ref_total
    vdd = tech.vdd
    cjs = tech.storage_junction_cap
    cbl = tech.bitline_capacitance(array.rows)
    background_nominal = nominal_background(
        tech, array.macro_rows, array.macro_cols, bitline_rows=array.rows
    )

    # The measurement's total island capacitance per cell, from the code
    # bin midpoint (X = C_estimate + nominal background by construction
    # of the abacus).
    x_measured = bitmap.estimates + background_nominal  # NaN out of range

    # Initial guesses: abacus estimates; nominal value where unknown.
    nominal = tech.cell_capacitance
    estimates = np.where(np.isfinite(bitmap.estimates), bitmap.estimates, nominal)

    # Coupling state per cell: how it loads its plate-mates.
    short_mask = np.zeros(bitmap.shape, dtype=bool)
    open_mask = bitmap.codes == 0
    over_mask = bitmap.codes == bitmap.scan.num_steps
    if verdicts is not None:
        short_mask = open_mask & (np.asarray(verdicts, dtype=object) == CellVerdict.SHORT)
        open_mask = open_mask & ~short_mask
    estimates = np.where(open_mask, 0.0, estimates)
    estimates = np.where(over_mask, bitmap.abacus.range_ceiling, estimates)

    cpp = tech.plate_parasitic(array.macro_rows * array.macro_cols)

    for _ in range(iterations):
        new = estimates.copy()
        for macro in array.macros():
            rows = slice(macro.row_start, macro.row_stop)
            cols = slice(macro.col_start, macro.col_stop)
            local = estimates[rows, cols]
            l_short = short_mask[rows, cols]
            l_open = open_mask[rows, cols]

            # Per-cell contribution when acting as a same-row neighbour
            # and as an off-row load.
            nbr = np.where(l_short, cbl + cjs, _series(local, cbl + cjs))
            nbr = np.where(l_open, 0.0, nbr)
            off = np.where(l_short, cjs, _series(local, cjs))
            off = np.where(l_open, 0.0, off)

            nbr_rows = nbr.sum(axis=1, keepdims=True)
            off_total = off.sum()
            off_rows = off.sum(axis=1, keepdims=True)
            background = cpp + (nbr_rows - nbr) + (off_total - off_rows)

            x_local = x_measured[rows, cols]
            updated = np.where(
                np.isfinite(x_local), np.maximum(x_local - background, 0.0), local
            )
            # Out-of-range cells keep their coupling-state values.
            updated = np.where(l_open, 0.0, updated)
            updated = np.where(
                over_mask[rows, cols], bitmap.abacus.range_ceiling, updated
            )
            new[rows, cols] = updated
        estimates = new

    # Report NaN where the cell itself was undecodable (matching the
    # plain bitmap semantics); the compensated values elsewhere.
    out = np.where(np.isfinite(bitmap.estimates), estimates, np.nan)
    return out
