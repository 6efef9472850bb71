"""Batched closed-form measurement kernel: every macro of a plane in one pass.

A per-macro closed form avoids per-cell Python, but a whole-array scan
would still pay Python once per macro tile — mask slicing, branch-term
algebra, two reductions and a ``searchsorted`` per tile, plus a tracer
span and a timing record each.  On a 128×64 array that is 256 trips
through the interpreter for ~30 numpy operations' worth of real work.

This kernel evaluates the closed-form algebra for **every macro at once**
on the array's bulk planes (capacitance, defect kinds — gathered as
arrays, never as per-cell Python objects).  The only macro-dependent
parts of the closed form are its two reductions, and both vectorize as
reshapes of the row-major planes:

- per-tile row sums (``tile.sum(axis=1)`` for every tile) are
  ``plane.reshape(rows, cols // mc, mc).sum(axis=2)`` — each length-
  ``mc`` row segment is contiguous, so numpy's pairwise summation walks
  the same values in the same order as the per-tile call;
- per-tile totals (``tile.sum()`` for every tile) need the tile laid
  out contiguously first: ``reshape(Tr, mr, Tc, mc)`` +
  ``transpose(0, 2, 1, 3)`` + ``ascontiguousarray`` rebuilds each tile
  as a flat ``mr·mc`` run, and summing that run reproduces the
  per-tile flat sum bit for bit.

Bit-exactness against a tile-by-tile evaluation is therefore not a
tolerance claim but an operation-order identity, pinned by
``tests/property/test_kernel_properties.py`` across random shapes,
variation maps and defect populations.  It also makes a macro-row slab,
or a single tile, bit-identical to its slice of a whole-array pass.

The kernel covers the **closed-form tier only**: bridge macros are
overwritten by the engine tier, and a slab whose every macro rides the
engine (a ``force_engine`` scan) skips its pass.
:meth:`ArrayScanner.scan` runs one pass per macro-row slab, and a
scan's ``kernel_seconds`` is the sum over its slab passes; a wafer runs
one pass per chunk of stacked dies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edram.defects import KIND_CODES, DefectKind

__all__ = [
    "KernelConstants",
    "closed_form_vgs_plane",
    "tile_row_sums",
    "tile_totals",
]

_SHORT = KIND_CODES[DefectKind.SHORT]
_OPEN = KIND_CODES[DefectKind.OPEN]
_ACCOPEN = KIND_CODES[DefectKind.ACCESS_OPEN]


def _series(a: float | np.ndarray, b: float | np.ndarray) -> np.ndarray:
    """Series combination a·b/(a+b), safely 0 when either plate is 0."""
    a = np.asarray(a, dtype=float)
    total = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(total > 0.0, a * b / np.where(total > 0.0, total, 1.0), 0.0)
    return out


@dataclass(frozen=True)
class KernelConstants:
    """Macro-independent closed-form constants (silicon copies are exact).

    Attributes
    ----------
    cjs:
        Storage-junction capacitance hanging on every floating cell.
    cbl:
        Full-height bitline parasitic (bitlines cannot be segmented).
    cpp:
        Plate-node parasitic of one macro tile.
    creft:
        Total reference-side capacitance (C_REF + wiring), joins the
        charge share discharged.
    vdd:
        Supply rail; every plate-side branch pre-charges to it.
    macro_rows, macro_cols:
        Tile geometry of the array being scanned.
    """

    cjs: float
    cbl: float
    cpp: float
    creft: float
    vdd: float
    macro_rows: int
    macro_cols: int


def tile_row_sums(plane: np.ndarray, macro_cols: int) -> np.ndarray:
    """``tile.sum(axis=1)`` for every tile, as one (rows, tiles_across) array.

    Each length-``macro_cols`` segment of a row is contiguous in the
    row-major plane, so the reduction order — and therefore every bit of
    the result — matches the per-tile call.
    """
    rows, cols = plane.shape
    return plane.reshape(rows, cols // macro_cols, macro_cols).sum(axis=2)


def tile_totals(plane: np.ndarray, macro_rows: int, macro_cols: int) -> np.ndarray:
    """``tile.sum()`` for every tile, as one (tiles_down, tiles_across) array.

    The transpose + copy lays each tile out as one contiguous
    ``macro_rows·macro_cols`` run, reproducing the flat pairwise
    summation of the per-tile call bit for bit.
    """
    rows, cols = plane.shape
    tr, tc = rows // macro_rows, cols // macro_cols
    tiles = np.ascontiguousarray(
        plane.reshape(tr, macro_rows, tc, macro_cols).transpose(0, 2, 1, 3)
    ).reshape(tr, tc, macro_rows * macro_cols)
    return tiles.sum(axis=2)


def closed_form_vgs_plane(
    cap: np.ndarray, kinds: np.ndarray, constants: KernelConstants
) -> np.ndarray:
    """V_GS for every cell of every macro in one vectorized pass.

    Parameters
    ----------
    cap:
        (rows, cols) as-fabricated capacitance plane (farads).
    kinds:
        (rows, cols) defect-kind code plane (0 = healthy).
    constants:
        The shared closed-form constants and tile geometry.

    Every tile's values depend on that tile alone, so any row-wise
    slab of macro rows (or one tile) gives its slice of the whole-plane
    result bit for bit; engine tiles (bridges) get closed-form values
    the caller overwrites.
    """
    cjs, cbl, cpp = constants.cjs, constants.cbl, constants.cpp
    creft, vdd = constants.creft, constants.vdd
    mr, mc = constants.macro_rows, constants.macro_cols
    rows, cols = cap.shape

    short = None
    if not kinds.any():
        # Defect-free plane: the branch equivalents collapse to the
        # healthy-cell terms — same algebra and operation order as the
        # masked path below, minus its ~15 whole-plane np.where calls.
        tgt_term = cap
        off_term = cap * cjs / (cap + cjs)
        nbr_term = cap * (cbl + cjs) / (cap + (cbl + cjs))
    else:
        short = kinds == _SHORT
        open_ = kinds == _OPEN
        accopen = kinds == _ACCOPEN
        normal = ~(short | open_ | accopen)

        # Branch equivalents per cell in each role, as derived in
        # repro.measure.scan (all pre-charged to V_DD).
        floating_series = _series(cap, cjs)
        off_term = np.where(normal | accopen, floating_series, 0.0)
        off_term = np.where(short, cjs, off_term)

        nbr_term = np.where(normal, _series(cap, cbl + cjs), 0.0)
        nbr_term = np.where(accopen, floating_series, nbr_term)
        nbr_term = np.where(short, cbl + cjs, nbr_term)

        tgt_term = np.where(normal, cap, 0.0)
        tgt_term = np.where(accopen, floating_series, tgt_term)

    off_rows = tile_row_sums(off_term, mc)  # (rows, tiles_across)
    nbr_rows = tile_row_sums(nbr_term, mc)
    # Per-tile totals, broadcast back to one value per (row, tile).
    off_all = np.repeat(tile_totals(off_term, mr, mc), mr, axis=0)

    tc = cols // mc
    x = (
        tgt_term.reshape(rows, tc, mc)
        + cpp
        + (nbr_rows[:, :, None] - nbr_term.reshape(rows, tc, mc))
        + (off_all - off_rows)[:, :, None]
    )
    vgs = (vdd * x / (x + creft)).reshape(rows, cols)
    if short is not None:
        # A shorted target clamps the plate to its grounded bitline.
        vgs = np.where(short, 0.0, vgs)
    return vgs
