"""Property tests: the batched kernel is bit-exact vs the per-macro path.

The vectorized whole-array kernel
(:func:`repro.measure.kernel.closed_form_vgs_plane`) promises *bit*
equality with the per-macro closed form — not ``allclose``, equality.
The per-macro closed form lives on here only as a test-side reference
(:func:`_reference_closed_form_vgs`), written independently of the
kernel's reshape reductions, so the kernel is never checked against
itself.  These tests hammer that promise across random macro geometries
(including 1-row/1-column edge shapes), random capacitance maps, and
random defect populations, then confirm the scan-level dispatch keeps
quality planes (DEGRADED / FAILED cells) identical to the per-macro walk
of ``tests/reference_scan.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edram.array import EDRAMArray
from repro.edram.defects import KIND_CODES, CellDefect, DefectKind
from repro.errors import SingularCircuitError
from repro.measure.config import ScanConfig
from repro.measure.kernel import _series, closed_form_vgs_plane
from repro.measure.scan import ArrayScanner
from repro.resilience.faults import Fault, FaultPlan, inject
from repro.resilience.quality import CellQuality
from repro.tech.parameters import default_technology
from repro.units import fF
from tests.reference_scan import reference_scan

_TECH = default_technology()

#: Kinds the closed form handles directly (BRIDGE forces the engine
#: tier and is exercised separately in the scan-level test below).
_KERNEL_KINDS = (
    DefectKind.SHORT,
    DefectKind.OPEN,
    DefectKind.ACCESS_OPEN,
    DefectKind.LOW_CAP,
    DefectKind.HIGH_CAP,
    DefectKind.RETENTION,
)


def _defect(kind: DefectKind) -> CellDefect:
    if kind is DefectKind.LOW_CAP:
        return CellDefect(kind, factor=0.4)
    if kind in (DefectKind.HIGH_CAP, DefectKind.RETENTION):
        return CellDefect(kind, factor=2.5)
    return CellDefect(kind)


def _reference_closed_form_vgs(scanner: ArrayScanner, macro) -> np.ndarray:
    """Per-macro masked closed form: every tile on its own, no reshapes.

    The branch equivalents of the charge-share algebra (see
    :mod:`repro.measure.scan`), reduced with plain per-tile ``sum``
    calls — the reference the batched kernel must reproduce bit for bit.
    """
    k = scanner.kernel_constants()
    cjs, cbl, cpp, creft, vdd = k.cjs, k.cbl, k.cpp, k.creft, k.vdd
    cap = macro.capacitance_matrix()
    kinds = macro.defect_kind_matrix()
    short = kinds == KIND_CODES[DefectKind.SHORT]
    open_ = kinds == KIND_CODES[DefectKind.OPEN]
    accopen = kinds == KIND_CODES[DefectKind.ACCESS_OPEN]
    normal = ~(short | open_ | accopen)

    floating_series = _series(cap, cjs)  # far side floats on C_js
    off_term = np.where(normal | accopen, floating_series, 0.0)
    off_term = np.where(short, cjs, off_term)

    nbr_term = np.where(normal, _series(cap, cbl + cjs), 0.0)
    nbr_term = np.where(accopen, floating_series, nbr_term)
    nbr_term = np.where(short, cbl + cjs, nbr_term)

    tgt_term = np.where(normal, cap, 0.0)
    tgt_term = np.where(accopen, floating_series, tgt_term)

    off_all = float(off_term.sum())
    off_rows = off_term.sum(axis=1)
    nbr_rows = nbr_term.sum(axis=1)
    x = (
        tgt_term
        + cpp
        + (nbr_rows[:, None] - nbr_term)
        + (off_all - off_rows)[:, None]
    )
    vgs = vdd * x / (x + creft)
    # A shorted target clamps the plate to its grounded bitline.
    return np.where(short, 0.0, vgs)


@st.composite
def _arrays(draw) -> EDRAMArray:
    """A random array: random tile grid, caps, and defect population."""
    macro_rows = draw(st.integers(1, 4))
    macro_cols = draw(st.integers(1, 3))
    rows = macro_rows * draw(st.integers(1, 3))
    cols = macro_cols * draw(st.integers(1, 3))
    caps = draw(
        st.lists(
            st.floats(10.0, 60.0), min_size=rows * cols, max_size=rows * cols
        )
    )
    array = EDRAMArray(
        rows,
        cols,
        tech=_TECH,
        macro_rows=macro_rows,
        macro_cols=macro_cols,
        capacitance_map=np.array(caps).reshape(rows, cols) * fF,
    )
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(0, rows - 1))
        col = draw(st.integers(0, cols - 1))
        cell = array.cell(row, col)
        if cell.defect is None:
            cell.apply_defect(_defect(draw(st.sampled_from(_KERNEL_KINDS))))
    return array


@given(array=_arrays())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_per_macro_closed_form(array):
    # The whole-array plane, sliced per tile, must equal the per-macro
    # closed form bit for bit — same algebra, same reduction order.
    scanner = ArrayScanner(array, None)
    plane = closed_form_vgs_plane(
        array.capacitance_view(),
        array.defect_kind_view(),
        scanner.kernel_constants(),
    )
    assert plane.shape == (array.rows, array.cols)
    for macro in array.macros():
        tile = plane[
            macro.row_start : macro.row_stop, macro.col_start : macro.col_stop
        ]
        reference = _reference_closed_form_vgs(scanner, macro)
        np.testing.assert_array_equal(tile, reference)
        np.testing.assert_array_equal(scanner.closed_form_vgs(macro), reference)


@given(array=_arrays())
@settings(max_examples=40, deadline=None)
def test_kernel_scan_matches_legacy_scan(array):
    # Scan-level dispatch: the kernel path must reproduce the per-macro
    # walk exactly — codes, V_GS, tiers and quality.
    fast = ArrayScanner(array, None).scan()
    slow = reference_scan(array)
    np.testing.assert_array_equal(fast.vgs, slow.vgs)
    np.testing.assert_array_equal(fast.codes, slow.codes)
    np.testing.assert_array_equal(fast.tiers, slow.tiers)
    np.testing.assert_array_equal(fast.quality, slow.quality)
    assert fast.stats.kernel_cells == array.num_cells


@given(array=_arrays(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_failed_tiles_survive_kernel_dispatch(array, data):
    # An armed fault plan walks each slab's tiles, firing the
    # scan.closed_form site per macro after the slab's kernel pass; the
    # FAILED placeholder tile must be identical to the per-macro walk's.
    target = data.draw(st.integers(0, array.num_macros - 1))

    def plan() -> FaultPlan:
        # Fresh instance per scan: firing counters are runtime state.
        return FaultPlan(
            [
                Fault(
                    "scan.closed_form",
                    error=SingularCircuitError("injected: dead calibration"),
                    match={"macro": target},
                    times=None,
                )
            ]
        )

    fast = ArrayScanner(array, None).scan(ScanConfig(faults=plan()))
    with inject(plan()):
        slow = reference_scan(array)
    np.testing.assert_array_equal(fast.vgs, slow.vgs)
    np.testing.assert_array_equal(fast.codes, slow.codes)
    np.testing.assert_array_equal(fast.quality, slow.quality)
    macro = array.macro(target)
    assert fast.stats.kernel_cells == array.num_cells - macro.num_cells
    failed = np.zeros(fast.quality.shape, dtype=bool)
    failed[macro.row_start : macro.row_stop, macro.col_start : macro.col_stop] = True
    np.testing.assert_array_equal(fast.quality == CellQuality.FAILED, failed)


def test_degraded_engine_cells_survive_kernel_dispatch():
    # A BRIDGE forces its macro onto the engine tier on both paths; an
    # injected solver failure inside that macro exercises the per-cell
    # closed-form rescue, so the scan carries a DEGRADED cell.  The
    # slab driver must land on the per-macro walk's planes, DEGRADED
    # flag included.
    def build() -> EDRAMArray:
        array = EDRAMArray(8, 4, tech=_TECH, macro_rows=4, macro_cols=2)
        array.cell(1, 0).apply_defect(CellDefect(DefectKind.BRIDGE))
        return array

    def plan() -> FaultPlan:
        return FaultPlan(
            [
                Fault(
                    "sequencer.measure",
                    error=SingularCircuitError("injected: cell solve died"),
                    match={"row": 2, "col": 1},
                    times=None,
                )
            ]
        )

    fast = ArrayScanner(build(), None).scan(ScanConfig(faults=plan()))
    with inject(plan()):
        slow = reference_scan(build())
    np.testing.assert_array_equal(fast.vgs, slow.vgs)
    np.testing.assert_array_equal(fast.codes, slow.codes)
    np.testing.assert_array_equal(fast.tiers, slow.tiers)
    np.testing.assert_array_equal(fast.quality, slow.quality)
    assert fast.quality[2, 1] == CellQuality.DEGRADED
    assert fast.stats.degraded_cells == 1


def test_bridge_macros_ride_engine_tier_next_to_kernel_macros():
    # Without faults the kernel handles every closed-form macro while
    # bridge macros take the exact engine — mixed tiers, one result.
    def build() -> EDRAMArray:
        array = EDRAMArray(8, 4, tech=_TECH, macro_rows=4, macro_cols=2)
        array.cell(5, 2).apply_defect(CellDefect(DefectKind.BRIDGE))
        return array

    fast = ArrayScanner(build(), None).scan()
    slow = reference_scan(build())
    np.testing.assert_array_equal(fast.vgs, slow.vgs)
    np.testing.assert_array_equal(fast.codes, slow.codes)
    np.testing.assert_array_equal(fast.tiers, slow.tiers)
    assert (fast.tiers[4:8, 2:4] == "e").all()
    assert fast.stats.kernel_cells == fast.vgs.size - 8
