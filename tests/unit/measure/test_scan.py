"""Array scanner: closed form, tier fallback, assembly."""

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectInjector, DefectKind
from repro.edram.variation_map import mismatch_map, uniform_map, compose_maps
from repro.errors import MeasurementError
from repro.measure.config import ScanConfig
from repro.measure.kernel import _series
from repro.measure.scan import ArrayScanner
from repro.measure.sequencer import MeasurementSequencer
from repro.units import fF


def test_series_helper():
    assert _series(30 * fF, 30 * fF) == pytest.approx(15 * fF)
    assert _series(0.0, 30 * fF) == 0.0
    assert float(_series(np.array([10 * fF]), 0.0)[0]) == 0.0


class TestClosedFormAgainstEngine:
    def test_uniform_macro(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        scanner = ArrayScanner(arr, structure_2x2)
        vgs_cf = scanner.closed_form_vgs(arr.macro(0))
        seq = MeasurementSequencer(arr.macro(0), structure_2x2)
        for r in range(2):
            for c in range(2):
                assert vgs_cf[r, c] == pytest.approx(
                    seq.measure_charge(r, c).vgs, abs=1e-12
                )

    @pytest.mark.parametrize(
        "kind,factor",
        [
            (DefectKind.SHORT, 1.0),
            (DefectKind.OPEN, 1.0),
            (DefectKind.ACCESS_OPEN, 1.0),
            (DefectKind.LOW_CAP, 0.5),
            (DefectKind.HIGH_CAP, 1.4),
        ],
    )
    def test_defective_macro(self, tech, structure_8x2, kind, factor):
        arr = EDRAMArray(8, 2, tech=tech)
        arr.cell(3, 1).apply_defect(CellDefect(kind, factor))
        scanner = ArrayScanner(arr, structure_8x2)
        vgs_cf = scanner.closed_form_vgs(arr.macro(0))
        seq = MeasurementSequencer(arr.macro(0), structure_8x2)
        for r in range(8):
            for c in range(2):
                assert vgs_cf[r, c] == pytest.approx(
                    seq.measure_charge(r, c).vgs, abs=1e-9
                ), f"mismatch at ({r},{c}) with {kind}"

    def test_randomized_capacitance_map(self, tech, structure_8x2):
        cap = compose_maps(
            uniform_map((8, 2), 30 * fF), mismatch_map((8, 2), 2 * fF, seed=11)
        )
        arr = EDRAMArray(8, 2, tech=tech, capacitance_map=cap)
        scanner = ArrayScanner(arr, structure_8x2)
        vgs_cf = scanner.closed_form_vgs(arr.macro(0))
        seq = MeasurementSequencer(arr.macro(0), structure_8x2)
        for r, c in ((0, 0), (3, 1), (7, 0)):
            assert vgs_cf[r, c] == pytest.approx(
                seq.measure_charge(r, c).vgs, abs=1e-9
            )


class TestVectorizedConversion:
    def test_codes_match_scalar_conversion(self, tech, structure_2x2):
        scanner = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2)
        vgs = np.linspace(0.0, 1.8, 50)
        vec = scanner.codes_for_vgs(vgs)
        scalar = [structure_2x2.code_for_vgs(float(v)) for v in vgs]
        assert list(vec) == scalar


class TestScanAssembly:
    def test_tiled_scan_covers_all_cells(self, tech, structure_8x2):
        arr = EDRAMArray(16, 4, tech=tech, macro_cols=2, macro_rows=8)
        arr.cell(12, 3).capacitance = 45 * fF
        scanner = ArrayScanner(arr, structure_8x2)
        result = scanner.scan()
        assert result.codes.shape == (16, 4)
        # The modified cell must stand out in its own tile position.
        assert result.codes[12, 3] > result.codes[12, 2]

    def test_bridge_macro_falls_back_to_engine(self, tech, structure_8x2):
        arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
        arr.cell(2, 0).apply_defect(CellDefect(DefectKind.BRIDGE))
        scanner = ArrayScanner(arr, structure_8x2)
        result = scanner.scan()
        assert set(result.tiers[:, 0:2].ravel()) == {"e"}
        assert set(result.tiers[:, 2:4].ravel()) == {"c"}

    def test_cross_macro_bridge_forces_engine_on_both(self, tech, structure_8x2):
        arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
        arr.cell(2, 1).apply_defect(CellDefect(DefectKind.BRIDGE))  # 1 -> 2
        result = ArrayScanner(arr, structure_8x2).scan()
        assert set(result.tiers.ravel()) == {"e"}

    def test_assembler_refuses_a_gap_or_a_double_landing(self, tech):
        # The driver's exactly-once tiling check: a macro never landed,
        # or landed twice, is an internal error, not a silent bitmap hole.
        from repro.errors import ScanMismatchError
        from repro.measure.scan import _Assembler

        arr = EDRAMArray(8, 4, tech=tech, macro_cols=2, macro_rows=4)
        tile = np.zeros((4, 2))
        out = _Assembler(arr, ScanConfig())
        for index in (0, 1, 2):
            out.place(arr.macro(index), tile, tile.astype(int), "c", None)
        with pytest.raises(ScanMismatchError, match=r"\[3\]: \[0\]"):
            out.check()
        out.place(arr.macro(3), tile, tile.astype(int), "c", None)
        out.check()
        out.place(arr.macro(1), tile, tile.astype(int), "c", None)
        with pytest.raises(ScanMismatchError, match=r"\[1\]: \[2\]"):
            out.check()

    def test_force_engine_matches_closed_form(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        scanner = ArrayScanner(arr, structure_2x2)
        fast = scanner.scan()
        slow = scanner.scan(ScanConfig(force_engine=True))
        assert np.array_equal(fast.codes, slow.codes)
        assert np.allclose(fast.vgs, slow.vgs, atol=1e-9)

    def test_code_histogram(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        result = ArrayScanner(arr, structure_2x2).scan()
        hist = result.code_histogram()
        assert sum(hist.values()) == 4
        # Dense over the full converter scale, zero-count codes included.
        assert sorted(hist) == list(range(result.num_steps + 1))


class TestMeasureCell:
    def test_charge_tier_by_global_address(self, tech, structure_8x2):
        arr = EDRAMArray(16, 4, tech=tech, macro_cols=2, macro_rows=8)
        scanner = ArrayScanner(arr, structure_8x2)
        result = scanner.measure_cell(10, 3, ScanConfig(tier="charge"))
        assert result.address == (10, 3)

    def test_unknown_tier_rejected(self, tech, structure_2x2):
        scanner = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2)
        with pytest.raises(MeasurementError):
            scanner.measure_cell(0, 0, ScanConfig(tier="psychic"))


class TestScanDiff:
    def test_golden_die_subtraction(self, tech, structure_2x2):
        golden = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2).scan()
        shifted_arr = EDRAMArray(2, 2, tech=tech)
        for r in range(2):
            for c in range(2):
                shifted_arr.cell(r, c).capacitance = 36 * fF
        shifted = ArrayScanner(shifted_arr, structure_2x2).scan()
        delta = shifted.diff(golden)
        assert (delta > 0).all()

    def test_identical_scans_diff_to_zero(self, tech, structure_2x2):
        scan = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2).scan()
        assert (scan.diff(scan) == 0).all()

    def test_shape_and_depth_checked(self, tech, structure_2x2, structure_8x2):
        a = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2).scan()
        b = ArrayScanner(EDRAMArray(4, 2, tech=tech), structure_2x2).scan()
        with pytest.raises(MeasurementError):
            a.diff(b)
