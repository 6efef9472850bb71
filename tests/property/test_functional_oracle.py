"""Property tests: the plane engine behind functional tests is bit-exact.

:class:`~repro.edram.operations.ArrayOperations` runs every march op as
one numpy pass over the array's functional planes.  The straightforward
per-cell loop it replaced lives on here only as the test-side reference
(:class:`_ReferenceOperations` and the ``_reference_*`` drivers): every
cell is a ``DRAMCell`` visited in turn, one ``now += cycle_time`` per
op, with the droop, charge-share and sense formulas written out inline
so the engine is never checked against itself.

The property pins fail planes, the behavioural clock and both
behavioural planes (stored voltage, last-write time) for every bundled
march algorithm, the retention screen and the retention ladder, on
random arrays carrying every defect kind (adjacent BRIDGE chains
included), with ideal and offset sense amplifiers failing either way,
after arbitrary single-cell ops.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.march import Order, march_catalog, retention_test
from repro.diagnosis.leakage_map import retention_ladder
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.edram.operations import ArrayOperations
from repro.edram.senseamp import SenseAmplifier
from repro.tech.parameters import default_technology
from repro.units import fA, fF

_TECH = default_technology()

_PAUSES = (0.0, 1e-3, 0.05, 0.2, 2.0)


class _ReferenceOperations:
    """The per-cell functional loop: one ``DRAMCell`` access per op."""

    def __init__(self, array, senseamp, cycle_time):
        self.array = array
        self.senseamp = senseamp
        self.cycle_time = cycle_time
        self.now = 0.0
        self.c_bl = array.bitline_capacitance()

    def _partner(self, row, col):
        if self.array.cell(row, col).has_defect(DefectKind.BRIDGE):
            return (row, col + 1)
        if col > 0 and self.array.cell(row, col - 1).has_defect(DefectKind.BRIDGE):
            return (row, col - 1)
        return None

    def _stored(self, cell, plate_bias):
        if cell.has_defect(DefectKind.SHORT):
            return plate_bias
        dt = max(0.0, self.now - cell.t_written)
        return max(0.0, cell.v_storage - cell.leak_current * dt / cell.capacitance)

    def _store(self, row, col, level):
        self.array.cell(row, col).write(level, self.now)
        partner = self._partner(row, col)
        if partner is not None:
            self.array.cell(*partner).write(level, self.now)

    def write(self, row, col, bit):
        self._store(row, col, self.array.tech.vdd if bit else 0.0)
        self.now += self.cycle_time

    def read(self, row, col):
        cell = self.array.cell(row, col)
        plate_bias = self.array.tech.half_vdd
        if cell.has_defect(DefectKind.SHORT):
            cap, voltage = cell.capacitance, plate_bias
        elif cell.has_defect(DefectKind.OPEN) or cell.has_defect(DefectKind.ACCESS_OPEN):
            cap, voltage = 0.0, plate_bias
        elif (partner := self._partner(row, col)) is not None:
            p_cell = self.array.cell(*partner)
            cap = cell.capacitance + p_cell.capacitance
            voltage = (
                cell.capacitance * self._stored(cell, plate_bias)
                + p_cell.capacitance * self._stored(p_cell, plate_bias)
            ) / cap
        else:
            cap, voltage = cell.capacitance, self._stored(cell, plate_bias)
        signal = (self.c_bl * plate_bias + cap * voltage) / (self.c_bl + cap) - plate_bias
        if abs(signal) <= abs(self.senseamp.offset):
            bit = not self.senseamp.fail_low
        else:
            bit = signal > 0.0
        self._store(row, col, self.array.tech.vdd if bit else 0.0)
        self.now += self.cycle_time
        return bit

    def addresses(self, descending=False):
        cells = [(r, c) for r in range(self.array.rows) for c in range(self.array.cols)]
        return cells[::-1] if descending else cells

    def planes(self):
        """(stored voltage, last-write time) gathered from every cell."""
        cells = [[self.array.cell(r, c) for c in range(self.array.cols)]
                 for r in range(self.array.rows)]
        return (np.array([[cell.v_storage for cell in row] for row in cells]),
                np.array([[cell.t_written for cell in row] for row in cells]))


def _reference_march(test, ref):
    fails = np.zeros((ref.array.rows, ref.array.cols), dtype=bool)
    for element in test.elements:
        for row, col in ref.addresses(element.order is Order.DESCENDING):
            for op in element.ops:
                if op.read:
                    if ref.read(row, col) != op.value:
                        fails[row, col] = True
                else:
                    ref.write(row, col, op.value)
    return fails


def _reference_retention(ref, pause, value):
    for row, col in ref.addresses():
        ref.write(row, col, value)
    ref.now += pause
    fails = np.zeros((ref.array.rows, ref.array.cols), dtype=bool)
    for row, col in ref.addresses():
        if ref.read(row, col) != value:
            fails[row, col] = True
    return fails


def _reference_ladder(ref, pauses, value):
    first_fail = np.full((ref.array.rows, ref.array.cols), len(pauses), dtype=int)
    for k, pause in enumerate(pauses):
        fails = _reference_retention(ref, pause, value)
        first_fail[fails & (first_fail == len(pauses))] = k
    return first_fail


_KINDS = list(DefectKind)


def _defect(kind, draw):
    if kind is DefectKind.LOW_CAP:
        return CellDefect(kind, draw(st.floats(0.05, 0.95)))
    if kind is DefectKind.HIGH_CAP:
        return CellDefect(kind, draw(st.floats(1.05, 3.0)))
    if kind is DefectKind.RETENTION:
        return CellDefect(kind, draw(st.floats(1.5, 5000.0)))
    return CellDefect(kind)


@st.composite
def _cases(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = (5 + 55 * rng.random((rows, cols))) * fF
    leak = 10 ** rng.uniform(-1, 3, (rows, cols)) * fA
    defects = []
    for r in range(rows):
        for c in range(cols):
            if not draw(st.booleans()):
                continue
            kind = draw(st.sampled_from(_KINDS))
            if kind is DefectKind.BRIDGE and c == cols - 1:
                continue
            defects.append((r, c, _defect(kind, draw)))
    prelude = draw(st.lists(
        st.tuples(st.sampled_from(["write", "read", "pause"]),
                  st.integers(0, rows - 1), st.integers(0, cols - 1),
                  st.booleans(), st.sampled_from(_PAUSES)),
        max_size=6,
    ))
    return {
        "rows": rows, "cols": cols, "cap": cap, "leak": leak, "defects": defects,
        "prelude": prelude,
        "sigma": draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3])),
        "sa_seed": draw(st.integers(0, 100)),
        "fail_low": draw(st.booleans()),
        "cycle_time": draw(st.sampled_from([20e-9, 1e-7 / 3])),
    }


def _pair(case):
    """The same array and sense amplifier, once for the engine, once for the loop."""
    def build():
        arr = EDRAMArray(case["rows"], case["cols"], tech=_TECH, macro_cols=1,
                         capacitance_map=case["cap"], leak_map=case["leak"])
        for r, c, defect in case["defects"]:
            arr.cell(r, c).apply_defect(defect)
        return arr, SenseAmplifier(case["sigma"], seed=case["sa_seed"],
                                   fail_low=case["fail_low"])

    engine_arr, sa = build()
    ref_arr, ref_sa = build()
    ops = ArrayOperations(engine_arr, sa, cycle_time=case["cycle_time"])
    ref = _ReferenceOperations(ref_arr, ref_sa, case["cycle_time"])
    for action, r, c, bit, pause in case["prelude"]:
        if action == "write":
            ops.write(r, c, bit)
            ref.write(r, c, bit)
        elif action == "read":
            assert ops.read(r, c) == ref.read(r, c)
        else:
            ops.pause(pause)
            ref.now += pause
    return ops, ref


def _assert_same_state(ops, ref):
    assert ops.now == ref.now
    v_ref, t_ref = ref.planes()
    v, t = ops.array.functional_planes()
    assert np.array_equal(v, v_ref)
    assert np.array_equal(t, t_ref)


_ALGORITHMS = sorted(march_catalog())


@given(case=_cases(), name=st.sampled_from(_ALGORITHMS), then_retention=st.booleans())
@settings(max_examples=150, deadline=None)
def test_march_matches_per_cell_loop(case, name, then_retention):
    ops, ref = _pair(case)
    fails = march_catalog()[name].run(ops).fails
    assert np.array_equal(fails, _reference_march(march_catalog()[name], ref))
    _assert_same_state(ops, ref)
    if then_retention:
        # A fresh instance on the same array starts its clock at 0 while
        # the stored write times run ahead of it, as in the diagnosis
        # pipeline's functional stage.
        ops = ArrayOperations(ops.array, ops.senseamp, cycle_time=ops.cycle_time)
        ref.now = 0.0
        fails = retention_test(ops, pause=0.2).fails
        assert np.array_equal(fails, _reference_retention(ref, 0.2, True))
        _assert_same_state(ops, ref)


@given(case=_cases(), pause=st.sampled_from(_PAUSES), value=st.booleans())
@settings(max_examples=80, deadline=None)
def test_retention_test_matches_per_cell_loop(case, pause, value):
    ops, ref = _pair(case)
    fails = retention_test(ops, pause, value=value).fails
    assert np.array_equal(fails, _reference_retention(ref, pause, value))
    _assert_same_state(ops, ref)


@given(case=_cases(), value=st.booleans())
@settings(max_examples=60, deadline=None)
def test_retention_ladder_matches_per_cell_loop(case, value):
    ops, ref = _pair(case)
    pauses = [1e-3, 0.05, 0.2, 2.0]
    ladder = retention_ladder(ops, pauses, value=value)
    assert np.array_equal(ladder, _reference_ladder(ref, pauses, value))
    _assert_same_state(ops, ref)


def test_bridge_chain_replays_in_visiting_order():
    """A three-cell BRIDGE chain through every catalog algorithm."""
    case = {
        "rows": 2, "cols": 5, "cap": np.full((2, 5), 30 * fF),
        "leak": np.full((2, 5), 1 * fA), "prelude": [],
        "defects": [(0, 1, CellDefect(DefectKind.BRIDGE)),
                    (0, 2, CellDefect(DefectKind.BRIDGE)),
                    (0, 3, CellDefect(DefectKind.BRIDGE)),
                    (1, 0, CellDefect(DefectKind.BRIDGE)),
                    (1, 1, CellDefect(DefectKind.SHORT))],
        "sigma": 3e-3, "sa_seed": 0, "fail_low": True, "cycle_time": 20e-9,
    }
    for name in _ALGORITHMS:
        ops, ref = _pair(case)
        fails = march_catalog()[name].run(ops).fails
        assert np.array_equal(fails, _reference_march(march_catalog()[name], ref))
        _assert_same_state(ops, ref)
