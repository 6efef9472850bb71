"""One oracle for every scan path: same array in, same planes out.

``ArrayScanner.scan`` has one driver and one plan: macro-row slabs, one
kernel pass each, engine macros overwritten, the slab landed as one
band — tile by tile when a fault plan is armed.  Observers (tracer,
metrics), a checkpoint and an interrupt followed by ``--resume`` must
not move a bit.  This property fabricates a random array —
SHORT/OPEN/LOW_CAP mixes plus the other closed-form kinds, BRIDGE chains
and bridges that cross into the next macro — runs it through every
path, and asserts ``vgs``, ``codes``, ``tiers`` and ``quality`` planes
identical to the per-macro walk of ``tests/reference_scan.py``, equal
tier counts, and that kernel cells and engine macros partition what
each scan measured.  Every path records into a run ledger, and its
artifact — a checkpointed path's kept checkpoint, any other path's
saved scan — loads back bit-identical to the planes the scan returned.

``force_engine`` is not a path here: the exact engine agrees with the
closed form to solver precision, not bit for bit, and keeps its own
agreement tests.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs import MetricsRegistry, Tracer
from repro.obs.ledger import RunLedger
from repro.resilience import Checkpointer, Fault, FaultPlan, list_checkpoints
from repro.tech.parameters import default_technology
from repro.units import fF
from tests.reference_scan import reference_scan

_TECH = default_technology()

_PLANES = ("vgs", "codes", "tiers", "quality")

#: Kinds the closed form handles directly; SHORT/OPEN/LOW_CAP dominate.
_CLOSED_FORM_KINDS = (
    DefectKind.SHORT,
    DefectKind.OPEN,
    DefectKind.LOW_CAP,
    DefectKind.SHORT,
    DefectKind.OPEN,
    DefectKind.LOW_CAP,
    DefectKind.ACCESS_OPEN,
    DefectKind.HIGH_CAP,
    DefectKind.RETENTION,
)


def _defect(kind: DefectKind) -> CellDefect:
    if kind is DefectKind.LOW_CAP:
        return CellDefect(kind, factor=0.4)
    if kind in (DefectKind.HIGH_CAP, DefectKind.RETENTION):
        return CellDefect(kind, factor=2.5)
    return CellDefect(kind)


@st.composite
def _recipes(draw) -> dict:
    """Everything needed to fabricate the same array again, per path."""
    macro_rows = draw(st.integers(1, 3))
    macro_cols = draw(st.integers(1, 3))
    rows = macro_rows * draw(st.integers(1, 4))
    cols = macro_cols * draw(st.integers(1, 4))
    caps = draw(
        st.lists(st.floats(10.0, 60.0), min_size=rows * cols, max_size=rows * cols)
    )
    defects: dict[tuple[int, int], DefectKind] = {}
    for _ in range(draw(st.integers(0, 4))):
        at = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
        defects.setdefault(at, draw(st.sampled_from(_CLOSED_FORM_KINDS)))
    if cols > 1:
        # BRIDGE chains: a run of bridged cells along one row, each
        # coupled to its right neighbour.  Starting on a macro's last
        # column makes the first link cross into the next macro.
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.integers(0, rows - 1))
            if cols > macro_cols and draw(st.booleans()):
                start = macro_cols * draw(
                    st.integers(1, cols // macro_cols - 1)
                ) - 1
            else:
                start = draw(st.integers(0, cols - 2))
            length = draw(st.integers(1, min(3, cols - 1 - start)))
            for col in range(start, start + length):
                defects[(row, col)] = DefectKind.BRIDGE
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


def _engine_macros(recipe: dict, array: EDRAMArray) -> set[int]:
    """Macros holding a bridge, or fed by one from the column to their left."""
    mc = recipe["macro_cols"]
    engine = set()
    for (row, col), kind in recipe["defects"].items():
        if kind is DefectKind.BRIDGE:
            engine.add(array.macro_of(row, col))
            if (col + 1) % mc == 0 and col + 1 < recipe["cols"]:
                engine.add(array.macro_of(row, col + 1))
    return engine


def _scan(recipe, config=None):
    return ArrayScanner(_build(recipe), None).scan(config)


def _recorded(recipe, checkpointed=False, **options):
    """One path's scan, recorded into a fresh ledger: the result and its
    artifact as the ledger loads it back."""
    with tempfile.TemporaryDirectory() as root:
        ledger = RunLedger(root)
        if checkpointed:
            options["checkpoint"] = Checkpointer(ledger)
        result = _scan(recipe, ScanConfig(ledger=ledger, **options))
        return result, ledger.load_artifact(ledger.runs()[-1])


def _interrupted_then_resumed(recipe, after, per_row):
    """Ctrl-C at the ``after``-th ``scan.macro_done``, then ``--resume``.

    Returns the resumed result, its recorded artifact and the number of
    macros it restored.
    """
    with tempfile.TemporaryDirectory() as root:
        ledger = RunLedger(root)
        interrupt = Fault("scan.macro_done", error=KeyboardInterrupt(),
                          after=after, times=1)
        with pytest.raises(KeyboardInterrupt):
            _scan(recipe, ScanConfig(checkpoint=Checkpointer(ledger),
                                     faults=FaultPlan([interrupt])))
        (state,) = list_checkpoints(ledger)
        # Only slabs finished before the interrupted macro's slab are
        # durable: the persisted list is always whole macro rows.
        assert state.completed == list(range(after // per_row * per_row))
        resumed = _scan(recipe, ScanConfig(
            checkpoint=Checkpointer(ledger, resume=state.run_id), ledger=ledger
        ))
        assert list_checkpoints(ledger) == []
        artifact = ledger.load_artifact(ledger.get(state.run_id))
        return resumed, artifact, len(state.completed)


@given(recipe=_recipes(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_scan_path_lands_the_same_planes(recipe, data):
    array = _build(recipe)
    engine = _engine_macros(recipe, array)
    reference = reference_scan(_build(recipe))

    after = data.draw(st.integers(0, array.num_macros - 1), label="interrupt_at")
    *resumed, restored = _interrupted_then_resumed(
        recipe, after, array.macros_per_row
    )
    tracer = Tracer()
    recorded = {
        "row slabs": _recorded(recipe),
        "checkpointed row slabs": _recorded(recipe, checkpointed=True),
        "fault-armed row slabs": _recorded(recipe, faults=FaultPlan([])),
        "traced with metrics": _recorded(
            recipe, tracer=tracer, metrics=MetricsRegistry()
        ),
        "interrupted then resumed": tuple(resumed),
    }
    paths = {"plain": _scan(recipe)}
    paths.update((name, result) for name, (result, _) in recorded.items())
    engine_cells = int((reference.tiers == "e").sum())
    for name, result in paths.items():
        for plane in _PLANES:
            np.testing.assert_array_equal(
                getattr(result, plane), getattr(reference, plane),
                err_msg=f"{plane} differs on the {name} path",
            )
            if name in recorded:
                got = getattr(recorded[name][1], plane)
                want = getattr(result, plane)
                assert (
                    got.dtype == want.dtype and got.tobytes() == want.tobytes()
                ), f"the {name} path's artifact {plane} differs from its result"
        assert result.stats.engine_cells == engine_cells, name
        assert (
            result.stats.closed_form_cells == array.num_cells - engine_cells
        ), name

    # Bridged macros, and only they, ride the engine; every other macro
    # comes from the kernel.
    cells = array.macro_rows * array.macro_cols
    expected_tiers = np.full((array.rows, array.cols), "c")
    for index in engine:
        macro = array.macro(index)
        expected_tiers[macro.row_start:macro.row_stop,
                       macro.col_start:macro.col_stop] = "e"
    np.testing.assert_array_equal(reference.tiers, expected_tiers)
    assert engine_cells == cells * len(engine)

    # Exactly-once accounting: every macro a scan measured is either in
    # its kernel cells or an engine macro with its own ``macro`` span; a
    # resumed scan measured only the macros after the ones it restored,
    # which are the first ones.
    spans = [span.attributes["index"] for span in tracer.spans
             if span.name == "macro"]
    assert spans == sorted(engine)
    for name, result in paths.items():
        first = restored if name == "interrupted then resumed" else 0
        measured = set(range(first, array.num_macros))
        assert (
            result.stats.kernel_cells == cells * len(measured - engine)
        ), name
