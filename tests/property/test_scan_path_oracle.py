"""One oracle for every scan path: same array in, same planes out.

``ArrayScanner.scan`` has one driver, but the plan it builds differs by
configuration: one kernel pass per macro-row slab whose kernel tiles
land together, tile by tile when a fault plan is armed, one macro at a
time with the kernel off.  Observers (tracer, metrics), a checkpoint
and an interrupt followed by ``--resume`` must not move a bit either.  This property
fabricates a random array — SHORT/OPEN/LOW_CAP mixes plus the other
closed-form kinds, BRIDGE chains and bridges that cross into the next
macro — runs it through every path, and asserts identical ``vgs``,
``codes``, ``tiers`` and ``quality`` planes, equal tier counts, and
that kernel cells and timed macros partition what each scan measured.

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


def _scan(recipe, config=None, use_kernel=True):
    return ArrayScanner(_build(recipe), None, use_kernel=use_kernel).scan(config)


def _interrupted_then_resumed(recipe, after, per_row):
    """Ctrl-C at the ``after``-th ``scan.macro_done``, then ``--resume``.

    Returns the resumed result and the number of macros it restored.
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
        resumed = _scan(
            recipe, ScanConfig(checkpoint=Checkpointer(ledger, resume=state.run_id))
        )
        assert list_checkpoints(ledger) == []
        return resumed, len(state.completed)


@given(recipe=_recipes(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_scan_path_lands_the_same_planes(recipe, data):
    array = _build(recipe)
    engine = _engine_macros(recipe, array)
    reference = _scan(recipe)

    with tempfile.TemporaryDirectory() as root:
        checkpointed = _scan(
            recipe, ScanConfig(checkpoint=Checkpointer(RunLedger(root)))
        )
    after = data.draw(st.integers(0, array.num_macros - 1), label="interrupt_at")
    resumed, restored = _interrupted_then_resumed(
        recipe, after, array.macros_per_row
    )
    paths = {
        "checkpointed row slabs": checkpointed,
        "fault-armed row slabs": _scan(recipe, ScanConfig(faults=FaultPlan([]))),
        "kernel off": _scan(recipe, use_kernel=False),
        "traced with metrics": _scan(
            recipe, ScanConfig(tracer=Tracer(), metrics=MetricsRegistry())
        ),
        "interrupted then resumed": resumed,
    }
    for name, result in paths.items():
        for plane in _PLANES:
            np.testing.assert_array_equal(
                getattr(result, plane), getattr(reference, plane),
                err_msg=f"{plane} differs on the {name} path",
            )
        assert result.stats.engine_cells == reference.stats.engine_cells, name
        assert (
            result.stats.closed_form_cells == reference.stats.closed_form_cells
        ), name

    # Bridged macros, and only they, ride the engine; every other macro
    # comes from the kernel unless the kernel is off.
    cells = array.macro_rows * array.macro_cols
    expected_tiers = np.full((array.rows, array.cols), "c")
    for index in engine:
        macro = array.macro(index)
        expected_tiers[macro.row_start:macro.row_stop,
                       macro.col_start:macro.col_stop] = "e"
    np.testing.assert_array_equal(reference.tiers, expected_tiers)
    assert reference.stats.engine_cells == cells * len(engine)
    kernel_cells = array.num_cells - cells * len(engine)
    assert reference.stats.kernel_cells == kernel_cells
    assert paths["fault-armed row slabs"].stats.kernel_cells == kernel_cells
    assert paths["kernel off"].stats.kernel_cells == 0

    # Exactly-once accounting: every macro a scan measured is either in
    # its kernel cells or in its own timing (engine macros, or all of
    # them with the kernel off); a resumed scan measured only the
    # macros after the ones it restored, which are the first ones.
    for name, result in {"plain": reference, **paths}.items():
        first = restored if name == "interrupted then resumed" else 0
        measured = range(first, array.num_macros)
        expected = (
            list(measured) if name == "kernel off"
            else sorted(engine.intersection(measured))
        )
        timings = result.stats.macro_timings
        assert [t.index for t in timings] == expected, name
        assert (
            result.stats.kernel_cells + sum(t.cells for t in timings)
            == cells * len(measured)
        ), name
