"""The per-macro scan walk, kept as a reference.

``ArrayScanner.scan`` used to keep a per-macro driver beside its slab
plan: with the kernel off it measured one macro at a time — the closed
form on the macro's own tile, or the exact engine for a macro a bridge
touches — and landed each tile on its own.  ``src/`` now runs every
scan as macro-row slabs (one kernel pass per slab, its engine macros
overwritten, one landing); ``tests/property/test_scan_path_oracle.py``,
``tests/property/test_kernel_properties.py`` and
``tests/property/test_technology_properties.py`` pin it against the walk
below, bit for bit.  The walk shares with ``src/`` the closed form of
one tile, the engine macro (``ArrayScanner._scan_macro``) and the code
conversion — not the plan, the bridge routing, or the landing.

Faults armed around a call (``with inject(plan):``) fire the
``scan.closed_form`` site once per closed-form macro, in macro order; a
refusal lands the zero placeholder flagged FAILED.
"""

from __future__ import annotations

import numpy as np

from repro.edram.array import EDRAMArray, MacroCell
from repro.edram.defects import KIND_CODES, DefectKind
from repro.errors import ReproError
from repro.measure.kernel import closed_form_vgs_plane
from repro.measure.scan import ArrayScanner, ScanResult
from repro.measure.structure import MeasurementStructure
from repro.obs.trace import NULL_TRACER
from repro.resilience.faults import fault_point
from repro.resilience.quality import CellQuality, quality_plane


def needs_engine(array: EDRAMArray, macro: MacroCell) -> bool:
    """A bridge in the macro, or in the column left of it (it couples in)."""
    kinds = array.defect_kind_view()
    bridge = KIND_CODES[DefectKind.BRIDGE]
    for r in macro.row_range:
        for c in range(max(macro.col_start - 1, 0), macro.col_stop):
            if kinds[r, c] == bridge:
                return True
    return False


def reference_scan(
    array: EDRAMArray, structure: MeasurementStructure | None = None
) -> ScanResult:
    """Scan ``array`` one macro at a time, in macro order (no stats)."""
    scanner = ArrayScanner(array, structure)
    constants = scanner.kernel_constants()
    convert = scanner.structure.codes_for_vgs
    shape = (array.rows, array.cols)
    vgs = np.zeros(shape)
    codes = np.zeros(shape, dtype=int)
    tiers = np.full(shape, "c", dtype="<U1")
    quality = quality_plane(shape)
    for macro in array.macros():
        tile = (slice(macro.row_start, macro.row_stop),
                slice(macro.col_start, macro.col_stop))
        if needs_engine(array, macro):
            vgs[tile], codes[tile], quality[tile] = scanner._scan_macro(
                macro, NULL_TRACER
            )
            tiers[tile] = "e"
            continue
        try:
            fault_point("scan.closed_form", macro=macro.index)
            m_vgs = closed_form_vgs_plane(
                macro.capacitance_matrix(), macro.defect_kind_matrix(), constants
            )
        except ReproError:
            m_vgs = np.zeros((macro.rows, array.macro_cols))
            quality[tile] = CellQuality.FAILED
        vgs[tile] = m_vgs
        codes[tile] = convert(m_vgs)
    return ScanResult(
        codes=codes,
        vgs=vgs,
        num_steps=scanner.structure.design.num_steps,
        tiers=tiers,
        quality=quality,
    )
