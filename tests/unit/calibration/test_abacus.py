"""Abacus construction, inversion and the Figure-3 data."""

import numpy as np
import pytest

from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure, nominal_background
from repro.edram.array import EDRAMArray
from repro.errors import CalibrationError
from repro.measure.scan import ArrayScanner
from repro.measure.structure import MeasurementStructure
from repro.units import fF, to_fF


class TestAnalyticAbacus:
    def test_edges_are_monotone(self, abacus_2x2):
        assert np.all(np.diff(abacus_2x2.edges) >= 0)

    def test_code_lookup_matches_edges(self, abacus_2x2):
        for code in (1, 7, 19):
            edge = abacus_2x2.edges[code - 1]
            assert abacus_2x2.code_for_capacitance(edge - 0.001 * fF) == code - 1
            assert abacus_2x2.code_for_capacitance(edge + 0.001 * fF) == code

    def test_code_for_negative_capacitance_rejected(self, abacus_2x2):
        with pytest.raises(CalibrationError):
            abacus_2x2.code_for_capacitance(-1.0)

    def test_rows_partition_the_axis(self, abacus_2x2):
        rows = abacus_2x2.rows()
        assert len(rows) == 21
        assert rows[0].c_min == 0.0
        assert np.isinf(rows[-1].c_max)
        for a, b in zip(rows, rows[1:]):
            assert a.c_max == pytest.approx(b.c_min)

    def test_row_current_column(self, abacus_2x2, structure_2x2):
        assert abacus_2x2.row(5).current == pytest.approx(
            5 * structure_2x2.design.delta_i
        )

    def test_estimate_midpoints(self, abacus_2x2):
        row = abacus_2x2.row(10)
        assert abacus_2x2.estimate(10) == pytest.approx((row.c_min + row.c_max) / 2)

    def test_out_of_range_estimates_are_none(self, abacus_2x2):
        assert abacus_2x2.estimate(0) is None
        assert abacus_2x2.estimate(20) is None

    def test_estimate_matrix_nans_out_of_range(self, abacus_2x2):
        codes = np.array([[0, 5], [20, 10]])
        est = abacus_2x2.estimate_matrix(codes)
        assert np.isnan(est[0, 0]) and np.isnan(est[1, 0])
        assert est[0, 1] == pytest.approx(abacus_2x2.estimate(5))

    def test_quantization_error_profile(self, abacus_2x2):
        # Mid-range error should be comfortably below the paper's 6 %.
        assert abacus_2x2.quantization_error(30 * fF) < 0.06
        assert abacus_2x2.quantization_error(5 * fF) == float("inf")
        assert abacus_2x2.quantization_error(70 * fF) == float("inf")

    def test_roundtrip_code_estimate_code(self, abacus_2x2):
        for code in range(1, 20):
            estimate = abacus_2x2.estimate(code)
            assert abacus_2x2.code_for_capacitance(estimate) == code

    def test_table_renders_all_rows(self, abacus_2x2):
        table = abacus_2x2.table()
        assert len(table.splitlines()) == 22  # header + 21 codes
        assert "ambiguous" in table
        assert "over range" in table

    def test_abacus_and_scanner_share_one_boundary_solve(self, tech, monkeypatch):
        calls = []
        solve = MeasurementStructure.vgs_for_code_boundary

        def counted(self, code):
            calls.append(code)
            return solve(self, code)

        monkeypatch.setattr(MeasurementStructure, "vgs_for_code_boundary", counted)
        array = EDRAMArray(16, 4, tech=tech, macro_cols=2, macro_rows=8)
        structure = design_structure(tech, 8, 2, bitline_rows=16)
        abacus = Abacus.for_array(structure, array)
        ArrayScanner(array, structure)
        num_steps = structure.design.num_steps
        assert calls == list(range(1, num_steps + 1))

        background = nominal_background(tech, 8, 2, 16)
        reference = []
        for code in range(1, num_steps + 1):
            v = solve(structure, code)
            x = structure.c_ref_total * v / (tech.vdd - v)
            reference.append(max(0.0, x - background))
        np.testing.assert_array_equal(
            abacus.edges, np.maximum.accumulate(np.asarray(reference))
        )


class TestSimulatedAbacus:
    def test_matches_analytic(self, structure_2x2, abacus_2x2):
        simulated = Abacus.from_simulation(
            structure_2x2, 2, 2, tolerance=0.01 * fF
        )
        assert np.allclose(simulated.edges, abacus_2x2.edges, atol=0.02 * fF)

    def test_for_array_convenience(self, tech, structure_8x2):
        arr = EDRAMArray(64, 2, tech=tech, macro_rows=8)
        ab = Abacus.for_array(structure_8x2, arr)
        assert ab.num_steps == structure_8x2.design.num_steps


class TestValidation:
    def test_edge_count_checked(self, structure_2x2):
        with pytest.raises(CalibrationError):
            Abacus(structure_2x2, np.zeros(5))

    def test_decreasing_edges_rejected(self, structure_2x2):
        edges = np.linspace(10 * fF, 55 * fF, 20)
        edges[5] = edges[4] - 1 * fF
        with pytest.raises(CalibrationError):
            Abacus(structure_2x2, edges)

    def test_row_bounds(self, abacus_2x2):
        with pytest.raises(CalibrationError):
            abacus_2x2.row(21)
