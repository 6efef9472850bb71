"""Behavioural array operations (the functional-test view)."""

import numpy as np
import pytest

from repro.baselines.march import march_c_minus
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.edram.operations import ArrayOperations
from repro.edram.senseamp import SenseAmplifier
from repro.errors import ArrayConfigError, DefectError


@pytest.fixture()
def ops(tech):
    return ArrayOperations(EDRAMArray(4, 4, tech=tech))


class TestBasicOps:
    def test_write_then_read(self, ops):
        ops.write(1, 2, True)
        assert ops.read(1, 2) is True
        ops.write(1, 2, False)
        assert ops.read(1, 2) is False

    def test_reads_are_restorative(self, ops):
        ops.write(0, 0, True)
        for _ in range(5):
            assert ops.read(0, 0) is True

    def test_clock_advances(self, ops):
        t0 = ops.now
        ops.write(0, 0, True)
        ops.read(0, 0)
        assert ops.now == pytest.approx(t0 + 2 * ops.cycle_time)

    def test_pause(self, ops):
        ops.pause(1e-3)
        assert ops.now == pytest.approx(1e-3)
        with pytest.raises(ArrayConfigError):
            ops.pause(-1.0)

    def test_cycle_time_validation(self, tech):
        with pytest.raises(ArrayConfigError):
            ArrayOperations(EDRAMArray(2, 2, tech=tech), cycle_time=0.0)


class TestPatterns:
    def test_solid_pattern(self, ops):
        ops.write_solid(True)
        assert ops.read_all().all()

    def test_checkerboard(self, ops):
        ops.write_checkerboard()
        data = ops.read_all()
        assert np.array_equal(data, ops.expected_checkerboard())

    def test_checkerboard_phase(self, ops):
        ops.write_checkerboard(phase=True)
        data = ops.read_all()
        assert np.array_equal(data, ops.expected_checkerboard(phase=True))


class TestDefectBehaviour:
    def _ops_with(self, kind, factor=1.0, where=(1, 1), tech=None):
        arr = EDRAMArray(4, 4, tech=tech)
        arr.cell(*where).apply_defect(CellDefect(kind, factor))
        return ArrayOperations(arr)

    def test_open_reads_preferred_state(self, tech):
        ops = self._ops_with(DefectKind.OPEN, tech=tech)
        ops.write(1, 1, True)
        assert ops.read(1, 1) is False  # fail_low amplifier default

    def test_short_reads_preferred_state(self, tech):
        ops = self._ops_with(DefectKind.SHORT, tech=tech)
        ops.write(1, 1, True)
        assert ops.read(1, 1) is False

    def test_fresh_low_cap_still_reads_correctly(self, tech):
        # The paper's key motivation: parametric cells pass digital test.
        ops = self._ops_with(DefectKind.LOW_CAP, factor=0.4, tech=tech)
        ops.write(1, 1, True)
        assert ops.read(1, 1) is True

    def test_retention_cell_fails_after_pause(self, tech):
        ops = self._ops_with(DefectKind.RETENTION, factor=2000.0, tech=tech)
        ops.write(1, 1, True)
        ops.pause(0.2)
        assert ops.read(1, 1) is False

    def test_healthy_cell_survives_pause(self, tech):
        ops = ArrayOperations(EDRAMArray(2, 2, tech=tech))
        ops.write(0, 0, True)
        ops.pause(0.05)  # under the retention target
        assert ops.read(0, 0) is True

    def test_bridge_couples_writes(self, tech):
        arr = EDRAMArray(4, 4, tech=tech)
        arr.cell(2, 1).apply_defect(CellDefect(DefectKind.BRIDGE))
        ops = ArrayOperations(arr)
        ops.write(2, 1, False)
        ops.write(2, 2, True)  # partner write drags the victim along
        assert ops.read(2, 1) is True

    def test_bridge_couples_from_either_side(self, tech):
        arr = EDRAMArray(4, 4, tech=tech)
        arr.cell(2, 1).apply_defect(CellDefect(DefectKind.BRIDGE))
        ops = ArrayOperations(arr)
        ops.write(2, 2, False)
        ops.write(2, 1, True)
        assert ops.read(2, 2) is True

    def test_bridge_on_last_column_is_rejected_before_any_op(self, tech):
        arr = EDRAMArray(2, 4, tech=tech)
        arr.cell(1, 3).apply_defect(CellDefect(DefectKind.BRIDGE))
        ops = ArrayOperations(arr)
        with pytest.raises(DefectError, match=r"BRIDGE at \(1, 3\)"):
            march_c_minus().run(ops)
        with pytest.raises(DefectError, match=r"BRIDGE at \(1, 3\)"):
            ops.write(1, 3, True)
        assert ops.now == 0.0
        voltage, written = arr.functional_planes()
        assert not voltage.any() and not written.any()


class TestSignalLevels:
    def test_nominal_read_signal_magnitude(self, tech):
        ops = ArrayOperations(EDRAMArray(64, 4, tech=tech))
        # dV = 0.9 * 30fF / (30fF + C_BL)
        cbl = tech.bitline_capacitance(64)
        expected = 0.9 * (30e-15) / (30e-15 + cbl)
        assert ops.read_signal_nominal == pytest.approx(expected, rel=1e-6)

    def test_custom_senseamp_is_used(self, tech):
        sa = SenseAmplifier(offset_sigma=0.0)
        ops = ArrayOperations(EDRAMArray(2, 2, tech=tech), senseamp=sa)
        assert ops.senseamp is sa
