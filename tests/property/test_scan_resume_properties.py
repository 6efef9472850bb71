"""Property tests: checkpointed scans crash and resume bit-exact, per slab.

A serial kernel scan with a checkpoint runs one kernel pass per
macro-row slab and persists once per slab.  The crash/resume oracle:
interrupt the scan at any ``scan.macro_done`` firing, resume it from the
checkpoint it left, and the planes (vgs, codes, tiers, quality) must
equal a plain uninterrupted ``scan()`` — with bridge macros riding the
engine tier inside their slab.  The persisted ``completed`` list must
always be whole slabs, for every tier, and a per-macro checkpoint
(ending mid-slab, as a checkpoint written one macro at a time leaves
it) must resume just as exactly.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner, _Assembler
from repro.obs.ledger import RunLedger
from repro.resilience import Checkpointer, Fault, FaultPlan, list_checkpoints
from repro.tech.parameters import default_technology
from repro.units import fF
from tests.reference_scan import reference_scan

_TECH = default_technology()

_KINDS = (
    DefectKind.SHORT,
    DefectKind.OPEN,
    DefectKind.ACCESS_OPEN,
    DefectKind.LOW_CAP,
    DefectKind.HIGH_CAP,
    DefectKind.BRIDGE,
)


def _defect(kind: DefectKind) -> CellDefect:
    if kind is DefectKind.LOW_CAP:
        return CellDefect(kind, factor=0.4)
    if kind is DefectKind.HIGH_CAP:
        return CellDefect(kind, factor=2.5)
    return CellDefect(kind)


@st.composite
def _recipes(draw) -> dict:
    """Everything needed to fabricate the same array again on resume."""
    macro_rows = draw(st.integers(1, 3))
    macro_cols = draw(st.integers(1, 2))
    rows = macro_rows * draw(st.integers(1, 3))
    cols = macro_cols * draw(st.integers(2, 3))
    caps = draw(
        st.lists(st.floats(10.0, 60.0), min_size=rows * cols, max_size=rows * cols)
    )
    defects = {}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_KINDS))
        # A bridge needs a right-hand neighbour.
        last_col = cols - 2 if kind is DefectKind.BRIDGE else cols - 1
        at = (draw(st.integers(0, rows - 1)), draw(st.integers(0, last_col)))
        defects.setdefault(at, kind)
    return dict(rows=rows, cols=cols, macro_rows=macro_rows,
                macro_cols=macro_cols, caps=caps, defects=defects)


def _build(recipe: dict) -> EDRAMArray:
    rows, cols = recipe["rows"], recipe["cols"]
    array = EDRAMArray(
        rows, cols, tech=_TECH,
        macro_rows=recipe["macro_rows"], macro_cols=recipe["macro_cols"],
        capacitance_map=np.array(recipe["caps"]).reshape(rows, cols) * fF,
    )
    for (row, col), kind in recipe["defects"].items():
        array.cell(row, col).apply_defect(_defect(kind))
    return array


def _interrupted(ledger, recipe, after):
    """Scan with a checkpoint, Ctrl-C at the ``after``-th macro_done."""
    interrupt = Fault("scan.macro_done", error=KeyboardInterrupt(),
                      after=after, times=1)
    with pytest.raises(KeyboardInterrupt):
        ArrayScanner(_build(recipe), None).scan(
            ScanConfig(checkpoint=Checkpointer(ledger),
                       faults=FaultPlan([interrupt]))
        )
    (state,) = list_checkpoints(ledger)
    return state


def _per_macro_checkpoint(ledger, recipe, count):
    """A scan checkpoint whose first ``count`` macros persisted one by one.

    Each macro lands from the per-macro walk's planes as a one-macro
    slab of the assembler, so the checkpoint can end mid-slab.
    """
    array = _build(recipe)
    walk = reference_scan(array)
    config = ScanConfig(checkpoint=Checkpointer(ledger))
    out = _Assembler(array, config, None)
    out.resume(config, walk.num_steps)
    mr = array.macro_rows
    for index in range(count):
        macro = array.macro(index)
        rows = slice(macro.row_start, macro.row_start + mr)
        engine = {}
        if walk.tiers[macro.row_start, macro.col_start] == "e":
            engine[index] = walk.quality[rows, macro.col_start:macro.col_stop]
        out.land(rows, [index], walk.vgs[rows].copy(), walk.codes[rows].copy(),
                 engine)
    (state,) = list_checkpoints(ledger)
    return state


def _resume_matches_plain_scan(ledger, recipe, run_id):
    resumed = ArrayScanner(_build(recipe), None).scan(
        ScanConfig(checkpoint=Checkpointer(ledger, resume=run_id))
    )
    plain = ArrayScanner(_build(recipe), None).scan()
    for plane in ("vgs", "codes", "tiers", "quality"):
        np.testing.assert_array_equal(
            getattr(resumed, plane), getattr(plain, plane), err_msg=plane
        )
    assert list_checkpoints(ledger) == []


@given(recipe=_recipes(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_slab_interrupt_resumes_bit_exact(recipe, data):
    array = _build(recipe)
    per_row = array.macros_per_row
    after = data.draw(st.integers(0, array.num_macros - 1))
    with tempfile.TemporaryDirectory() as root:
        ledger = RunLedger(root)
        state = _interrupted(ledger, recipe, after)
        # Only slabs finished before the interrupted macro's slab are
        # durable: the persisted list is always whole macro rows.
        assert state.completed == list(range(after // per_row * per_row))
        _resume_matches_plain_scan(ledger, recipe, state.run_id)


@given(recipe=_recipes(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_per_macro_checkpoint_resumes_bit_exact_through_slabs(recipe, data):
    # A checkpoint persisted after every macro can end mid-slab; the
    # slab driver must land only that slab's undone tiles and still
    # land on the plain scan's planes.
    array = _build(recipe)
    after = data.draw(st.integers(0, array.num_macros - 1))
    with tempfile.TemporaryDirectory() as root:
        ledger = RunLedger(root)
        state = _per_macro_checkpoint(ledger, recipe, after)
        assert state.completed == list(range(after))
        _resume_matches_plain_scan(ledger, recipe, state.run_id)


@given(recipe=_recipes(), force_engine=st.booleans())
@settings(max_examples=15, deadline=None)
def test_checkpointed_scan_persists_once_per_slab(recipe, force_engine):
    # R macro rows: the manifest write reserves the run id, then one
    # journal segment per slab — on the engine tier too.
    writes = []
    manifest, segment = Checkpointer._write_manifest, Checkpointer._write_segment

    def counting(original):
        def write(self, state):
            writes.append(list(state.completed))
            original(self, state)
        return write

    array = _build(recipe)
    per_row = array.macros_per_row
    with tempfile.TemporaryDirectory() as root:
        Checkpointer._write_manifest = counting(manifest)
        Checkpointer._write_segment = counting(segment)
        try:
            ArrayScanner(array, None).scan(ScanConfig(
                checkpoint=Checkpointer(RunLedger(root)),
                force_engine=force_engine,
            ))
        finally:
            Checkpointer._write_manifest = manifest
            Checkpointer._write_segment = segment
    assert writes == [
        list(range(slab * per_row)) for slab in range(array.macros_per_col + 1)
    ]
