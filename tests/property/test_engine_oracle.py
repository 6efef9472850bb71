"""Oracle: the stacked charge engine against the per-cell reference.

:meth:`MeasurementSequencer.measure_charge` given index arrays settles
phase 1 once per macro and each of phases 2–4 as one stacked solve over
every target; ``tests/reference_charge.py`` walks one target at a time
through the per-state union-find/dict loop the engine replaced.  Over
random macros — internal and cross-macro BRIDGE chains, SHORT / OPEN /
ACCESS_OPEN / LOW_CAP / HIGH_CAP mixes, zeroed capacitors (isolated
islands and the rank-deficient minimal-norm fallback) and sabotage
switches (drive conflicts) — both must agree bit for bit: every target's
V_GS, its per-phase plate and gate voltages, which targets fail and
with what error.  A second property pins
:meth:`CapacitorNetwork.settle`, now a stack of one, against the
reference ``settle`` over random networks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.charge import CapacitorNetwork
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.errors import MeasurementError, SingularCircuitError
from repro.measure.result import FlowTrace
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.structure import MeasurementStructure
from repro.obs import MetricsRegistry, use_metrics
from repro.resilience import Fault, FaultPlan
from repro.resilience.faults import inject
from repro.tech.parameters import default_technology
from repro.units import fF
from tests import reference_charge as reference

_TECH = default_technology()
_STRUCTURE = MeasurementStructure(_TECH)
_KINDS = (
    DefectKind.SHORT,
    DefectKind.OPEN,
    DefectKind.ACCESS_OPEN,
    DefectKind.LOW_CAP,
    DefectKind.HIGH_CAP,
)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def _macros(draw) -> dict:
    """An array of one or two macros side by side, plus network sabotage."""
    macro_rows = draw(st.integers(1, 4))
    macro_cols = draw(st.integers(1, 3))
    cols = macro_cols * draw(st.integers(1, 2))
    rows = macro_rows
    caps = draw(
        st.lists(st.floats(10.0, 60.0), min_size=rows * cols, max_size=rows * cols)
    )
    defects: dict[tuple[int, int], DefectKind] = {}
    for _ in range(draw(st.integers(0, 4))):
        at = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
        defects[at] = draw(st.sampled_from(_KINDS))
    if cols > 1:
        # BRIDGE chains along a row; one that reaches a macro's last
        # column couples into the next macro.
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.integers(0, rows - 1))
            start = draw(st.integers(0, cols - 2))
            length = draw(st.integers(1, min(3, cols - 1 - start)))
            for col in range(start, start + length):
                defects[(row, col)] = DefectKind.BRIDGE
    targets = draw(
        st.lists(
            st.tuples(st.integers(0, macro_rows - 1), st.integers(0, macro_cols - 1)),
            min_size=1,
            max_size=2 * macro_rows * macro_cols + 2,
        )
    )
    zeroed = draw(st.lists(st.integers(0, 10_000), max_size=8))
    # Parasitics to strip: without them the plate and deselected storage
    # nodes of an OPEN target float with no path to a source in ISOLATE,
    # a rank-deficient system.
    strip = draw(st.sampled_from([(), ("CPP", "CJS"), ("CPP", "CJS", "CBL")]))
    sabotage = draw(
        st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)), max_size=2)
    )
    return dict(
        rows=rows, cols=cols, macro_rows=macro_rows, macro_cols=macro_cols,
        caps=caps, defects=defects, targets=targets, zeroed=zeroed,
        strip=strip, sabotage=sabotage,
    )


def _build(recipe: dict) -> EDRAMArray:
    rows, cols = recipe["rows"], recipe["cols"]
    array = EDRAMArray(
        rows, cols, tech=_TECH,
        macro_rows=recipe["macro_rows"], macro_cols=recipe["macro_cols"],
        capacitance_map=np.array(recipe["caps"]).reshape(rows, cols) * fF,
    )
    for (row, col), kind in recipe["defects"].items():
        factor = {DefectKind.LOW_CAP: 0.4, DefectKind.HIGH_CAP: 2.5}.get(kind, 1.0)
        array.cell(row, col).apply_defect(CellDefect(kind, factor=factor))
    return array


def _sequencer(macro, recipe: dict) -> MeasurementSequencer:
    """A sequencer whose cached network carries the recipe's sabotage."""
    seq = MeasurementSequencer(macro, _STRUCTURE)
    net = seq._charge_network().network
    caps = [name for name, *_ in net.capacitors()]
    for pick in recipe["zeroed"]:
        net.set_capacitance(caps[pick % len(caps)], 0.0)
    for name in caps:
        if name.startswith(recipe["strip"]):
            net.set_capacitance(name, 0.0)
    nodes = net.node_names
    for k, (a, b) in enumerate(recipe["sabotage"]):
        node_a, node_b = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if node_a != node_b:
            net.add_switch(f"SABOTAGE{k}", node_a, node_b, closed=True)
    seq._pristine = net.snapshot()  # re-baseline the sabotaged network
    return seq


def _reference(seq: MeasurementSequencer, row: int, lcol: int):
    trace = FlowTrace()
    try:
        return reference.charge_phases(seq, row, lcol, trace), trace, None
    except SingularCircuitError as exc:
        return float("nan"), trace, exc


def _assert_same_trace(trace: FlowTrace, expected: FlowTrace) -> None:
    assert list(trace.plate) == list(expected.plate)
    assert list(trace.gate) == list(expected.gate)
    np.testing.assert_array_equal(
        _bits(list(trace.plate.values())), _bits(list(expected.plate.values()))
    )
    np.testing.assert_array_equal(
        _bits(list(trace.gate.values())), _bits(list(expected.gate.values()))
    )


def _assert_same_error(error, expected) -> None:
    assert type(error) is type(expected)
    assert str(error) == str(expected)
    assert error.nodes == expected.nodes


@given(recipe=_macros())
@settings(max_examples=120, deadline=None)
def test_stacked_engine_matches_the_per_cell_reference(recipe):
    array = _build(recipe)
    rows, lcols = (np.array(axis) for axis in zip(*recipe["targets"]))
    for macro in (array.macro(i) for i in range(array.num_macros)):
        seq = _sequencer(macro, recipe)
        traces = [FlowTrace() for _ in recipe["targets"]]
        batch = seq.measure_charge(rows, lcols, trace=traces)
        for k, (row, lcol) in enumerate(recipe["targets"]):
            vgs, trace, error = _reference(seq, row, lcol)
            _assert_same_trace(traces[k], trace)
            assert batch.failed[k] == (error is not None)
            if error is None:
                assert batch.errors[k] is None
                assert _bits(batch.vgs[k]) == _bits(vgs)
            else:
                _assert_same_error(batch.errors[k], error)
                assert np.isnan(batch.vgs[k])
        # The scalar form is a stack of one through the same phases.
        row, lcol = recipe["targets"][0]
        vgs, trace, error = _reference(seq, row, lcol)
        own = FlowTrace()
        if error is None:
            assert _bits(seq.measure_charge(row, lcol, trace=own).vgs) == _bits(vgs)
        else:
            with pytest.raises(SingularCircuitError) as excinfo:
                seq.measure_charge(row, lcol, trace=own)
            _assert_same_error(excinfo.value, error)
        _assert_same_trace(own, trace)


def test_rank_deficient_share_takes_the_minimal_norm_fallback_per_target():
    # One column, target cells OPEN, no plate or junction capacitance:
    # in ISOLATE the plate and the deselected storage nodes float with
    # no capacitive path to any source, a singular block.
    array = EDRAMArray(3, 1, tech=_TECH, macro_rows=3, macro_cols=1)
    array.cell(1, 0).apply_defect(CellDefect(DefectKind.OPEN))
    seq = MeasurementSequencer(array.macro(0), _STRUCTURE)
    net = seq._charge_network().network
    for name, *_ in list(net.capacitors()):
        if name == "CPP" or name.startswith("CJS"):
            net.set_capacitance(name, 0.0)
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        batch = seq.measure_charge(np.array([0, 1, 2]), np.array([0, 0, 0]))
    assert metrics.counter("charge.minnorm_fallbacks").value >= 1
    assert not batch.failed.any()
    for k in range(3):
        assert _bits(batch.vgs[k]) == _bits(reference.charge_phases(seq, k, 0))


def test_drive_conflicts_fail_only_their_targets():
    # A sabotage short from bitline 0 to ground: every target that
    # drives bitline 0 to V_DD (target column 1) conflicts with ground.
    array = EDRAMArray(2, 2, tech=_TECH, macro_rows=2, macro_cols=2)
    seq = MeasurementSequencer(array.macro(0), _STRUCTURE)
    net = seq._charge_network().network
    net.add_switch("SABOTAGE", "bl0", "0", closed=True)
    seq._pristine = net.snapshot()
    rows, lcols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    batch = seq.measure_charge(rows, lcols)
    np.testing.assert_array_equal(batch.failed, lcols == 1)
    for k, (row, lcol) in enumerate(zip(rows.tolist(), lcols.tolist())):
        vgs, _, error = _reference(seq, row, lcol)
        if error is None:
            assert _bits(batch.vgs[k]) == _bits(vgs)
        else:
            _assert_same_error(batch.errors[k], error)
            assert set(error.nodes) == {"0", "bl0"}


def test_fault_point_fires_per_target_in_order_and_fails_only_its_target():
    array = EDRAMArray(2, 2, tech=_TECH, macro_rows=2, macro_cols=2)
    seq = MeasurementSequencer(array.macro(0), _STRUCTURE)
    injected = SingularCircuitError("injected: cell solve died")
    plan = FaultPlan([Fault("sequencer.measure", error=injected,
                            match={"row": 1, "col": 0}, times=None)])
    rows, lcols = np.array([1, 0, 1, 0]), np.array([1, 0, 0, 1])
    with inject(plan):
        batch = seq.measure_charge(rows, lcols)
    assert [(a["row"], a["col"]) for _, a, _ in plan.firings] == [(1, 0)]
    np.testing.assert_array_equal(batch.failed, [False, False, True, False])
    assert batch.errors[2] is injected
    for k in (0, 1, 3):
        expected = reference.charge_phases(seq, int(rows[k]), int(lcols[k]))
        assert _bits(batch.vgs[k]) == _bits(expected)


def test_other_fault_errors_propagate():
    array = EDRAMArray(2, 2, tech=_TECH, macro_rows=2, macro_cols=2)
    seq = MeasurementSequencer(array.macro(0), _STRUCTURE)
    plan = FaultPlan([Fault("sequencer.measure", error=MeasurementError("boom"),
                            match={"row": 0, "col": 1})])
    with inject(plan), pytest.raises(MeasurementError, match="boom"):
        seq.measure_charge(np.array([0, 0]), np.array([0, 1]))


def test_chunked_stacks_change_no_bits(monkeypatch):
    # A byte budget below one system solves every state in its own chunk.
    import repro.circuit.charge as charge

    array = EDRAMArray(4, 4, tech=_TECH, macro_rows=4, macro_cols=2)
    array.cell(1, 0).apply_defect(CellDefect(DefectKind.BRIDGE))
    array.cell(2, 1).apply_defect(CellDefect(DefectKind.BRIDGE))
    array.cell(3, 0).apply_defect(CellDefect(DefectKind.SHORT))
    rows, lcols = np.divmod(np.arange(8), 2)
    whole = [
        MeasurementSequencer(array.macro(i), _STRUCTURE).measure_charge(rows, lcols)
        for i in range(2)
    ]
    monkeypatch.setattr(charge, "_STACK_BYTES", 1)
    for i, expected in enumerate(whole):
        chunked = MeasurementSequencer(array.macro(i), _STRUCTURE).measure_charge(
            rows, lcols
        )
        np.testing.assert_array_equal(_bits(chunked.vgs), _bits(expected.vgs))


def test_index_arrays_must_pair_up():
    seq = MeasurementSequencer(EDRAMArray(2, 2, tech=_TECH).macro(0), _STRUCTURE)
    with pytest.raises(MeasurementError, match="equal-length"):
        seq.measure_charge(np.array([0, 1]), np.array([0]))
    with pytest.raises(MeasurementError, match="outside"):
        seq.measure_charge(np.array([0, 2]), np.array([0, 0]))


# ---------------------------------------------------------------------------
# settle() against the reference settle
# ---------------------------------------------------------------------------


@st.composite
def _networks(draw) -> dict:
    nodes = draw(st.integers(1, 7))
    caps = draw(st.lists(
        st.tuples(st.integers(0, nodes), st.integers(0, nodes),
                  st.sampled_from([0.0, 0.5, 1.0, 3.3, 30.0, 55.5])),
        max_size=12,
    ))
    switches = draw(st.lists(
        st.tuples(st.integers(0, nodes), st.integers(0, nodes), st.booleans()),
        max_size=6,
    ))
    start = draw(st.lists(st.floats(-2.0, 2.0), min_size=nodes, max_size=nodes))
    # A few reconfigurations: drive/float nodes and flip switches, then settle.
    steps = draw(st.lists(
        st.tuples(
            st.dictionaries(st.integers(1, nodes),
                            st.one_of(st.none(), st.sampled_from([0.0, 0.9, 1.8]))),
            st.lists(st.integers(0, 10_000), max_size=3),
        ),
        min_size=1, max_size=4,
    ))
    return dict(nodes=nodes, caps=caps, switches=switches, start=start, steps=steps)


def _network(recipe: dict) -> CapacitorNetwork:
    def name(i: int) -> str:
        return "0" if i == 0 else f"n{i}"

    net = CapacitorNetwork()
    for i, v in enumerate(recipe["start"], start=1):
        net.add_node(name(i), v)
    for k, (a, b, c) in enumerate(recipe["caps"]):
        net.add_capacitor(f"C{k}", name(a), name(b), c * fF)
    for k, (a, b, closed) in enumerate(recipe["switches"]):
        net.add_switch(f"S{k}", name(a), name(b), closed)
    return net


def _reconfigure(net: CapacitorNetwork, drives: dict, flips: list) -> None:
    for node, level in drives.items():
        if level is None:
            net.float_node(f"n{node}")
        else:
            net.drive(f"n{node}", level)
    switches = [name for name, *_ in net.switches()]
    for pick in flips:
        if switches:
            name = switches[pick % len(switches)]
            net._set_switch(name, not net.switch_closed(name))


@given(recipe=_networks())
@settings(max_examples=300, deadline=None)
def test_settle_matches_the_reference_settle(recipe):
    engine, ref = _network(recipe), _network(recipe)
    for drives, flips in recipe["steps"]:
        _reconfigure(engine, drives, flips)
        _reconfigure(ref, drives, flips)
        try:
            expected = reference.settle(ref)
        except SingularCircuitError as exc:
            with pytest.raises(SingularCircuitError) as excinfo:
                engine.settle()
            _assert_same_error(excinfo.value, exc)
            return
        state = engine.settle()
        assert list(state.voltages) == list(expected.voltages)
        np.testing.assert_array_equal(
            _bits(list(state.voltages.values())),
            _bits(list(expected.voltages.values())),
        )
