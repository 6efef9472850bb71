"""Leakage bitmap extraction (capacitance + retention ladder)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.analog import AnalogBitmap
from repro.diagnosis.leakage_map import (
    LeakageBounds,
    extract_leakage,
    retention_ladder,
)
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.edram.operations import ArrayOperations
from repro.errors import DiagnosisError
from repro.measure.scan import ArrayScanner

PAUSES = [0.01, 0.1, 1.0, 10.0]


@pytest.fixture(scope="module")
def setup(tech, structure_8x2, abacus_8x2):
    array = EDRAMArray(8, 4, tech=tech, macro_cols=2)
    array.cell(2, 1).apply_defect(CellDefect(DefectKind.RETENTION, factor=3000.0))
    array.cell(5, 3).apply_defect(CellDefect(DefectKind.RETENTION, factor=300.0))
    array.cell(6, 0).apply_defect(CellDefect(DefectKind.SHORT))
    bitmap = AnalogBitmap(ArrayScanner(array, structure_8x2).scan(), abacus_8x2)
    ladder = retention_ladder(ArrayOperations(array), PAUSES)
    bounds = extract_leakage(bitmap, ladder, PAUSES, v_write=1.8, v_min=0.9)
    return array, bitmap, ladder, bounds


class TestLadder:
    def test_validation(self, tech):
        ops = ArrayOperations(EDRAMArray(2, 2, tech=tech))
        with pytest.raises(DiagnosisError):
            retention_ladder(ops, [])
        with pytest.raises(DiagnosisError):
            retention_ladder(ops, [0.1, 0.1])
        with pytest.raises(DiagnosisError):
            retention_ladder(ops, [-1.0, 1.0])

    def test_healthy_cells_survive_everything(self, setup):
        _, _, ladder, _ = setup
        assert ladder[0, 0] == len(PAUSES)

    def test_leaky_cells_ordered_by_severity(self, setup):
        _, _, ladder, _ = setup
        assert ladder[2, 1] < ladder[5, 3] < len(PAUSES)


class TestBounds:
    def test_bounds_bracket_true_leakage(self, setup):
        array, _, _, bounds = setup
        for addr in ((2, 1), (5, 3)):
            true = array.cell(*addr).leak_current
            assert bounds.lower[addr] <= true * 1.2
            if np.isfinite(bounds.upper[addr]):
                assert bounds.upper[addr] >= true * 0.8

    def test_healthy_cells_have_only_upper_bounds(self, setup):
        array, _, _, bounds = setup
        assert bounds.lower[0, 0] == 0.0
        assert np.isfinite(bounds.upper[0, 0])
        assert bounds.upper[0, 0] >= array.cell(0, 0).leak_current

    def test_unmeasurable_cells_are_nan(self, setup):
        _, _, _, bounds = setup
        assert np.isnan(bounds.lower[6, 0])  # the short: no C estimate
        assert np.isnan(bounds.upper[6, 0])

    def test_midpoint_only_where_two_sided(self, setup):
        _, _, _, bounds = setup
        mid = bounds.midpoint()
        assert np.isfinite(mid[5, 3])  # bracketed cell
        assert np.isnan(mid[0, 0])  # one-sided cell

    def test_provably_leaky_query(self, setup):
        array, _, _, bounds = setup
        leaky = bounds.leaky_cells(1e-13)
        assert set(leaky) == {(2, 1), (5, 3)}
        with pytest.raises(DiagnosisError):
            bounds.leaky_cells(0.0)

    def test_diagnostic_separation(self, setup, tech):
        """The headline: same fail time, different root cause."""
        # A small capacitor with normal leakage and a normal capacitor
        # with high leakage can fail the same pause; only the combined
        # map separates them.
        array = EDRAMArray(4, 2, tech=tech)
        array.cell(0, 0).apply_defect(CellDefect(DefectKind.LOW_CAP, factor=0.4))
        array.cell(0, 0).leak_current *= 120  # small cap, leaky-ish
        array.cell(1, 1).apply_defect(CellDefect(DefectKind.RETENTION, factor=300.0))
        from repro.calibration.design import design_structure
        from repro.calibration.abacus import Abacus

        structure = design_structure(tech, 4, 2)
        abacus = Abacus.analytic(structure, 4, 2)
        bitmap = AnalogBitmap(ArrayScanner(array, structure).scan(), abacus)
        ladder = retention_ladder(ArrayOperations(array), PAUSES)
        bounds = extract_leakage(bitmap, ladder, PAUSES, 1.8, 0.9)
        # Both fail retention by 10 s...
        assert ladder[0, 0] < len(PAUSES)
        assert ladder[1, 1] < len(PAUSES)
        # ...but the capacitance map separates cause: (0,0) is a small
        # capacitor, (1,1) is a full capacitor with worse leakage bound.
        assert bitmap.estimates[0, 0] < 0.6 * bitmap.estimates[1, 1]


class TestValidation:
    def test_shape_mismatch(self, setup):
        _, bitmap, _, _ = setup
        with pytest.raises(DiagnosisError):
            extract_leakage(bitmap, np.zeros((2, 2), dtype=int), PAUSES, 1.8, 0.9)

    def test_voltage_order(self, setup):
        _, bitmap, ladder, _ = setup
        with pytest.raises(DiagnosisError):
            extract_leakage(bitmap, ladder, PAUSES, v_write=0.9, v_min=1.8)


def _reference_extract_leakage(estimates, first_fail, pauses, v_write, v_min):
    """The per-cell loop :func:`extract_leakage` must reproduce exactly."""
    budget = estimates * (v_write - v_min)
    rows, cols = estimates.shape
    lower = np.zeros((rows, cols))
    upper = np.full((rows, cols), np.inf)
    for r in range(rows):
        for c in range(cols):
            q = budget[r, c]
            if not np.isfinite(q):
                lower[r, c] = upper[r, c] = np.nan
                continue
            k = int(first_fail[r, c])
            if k < len(pauses):
                lower[r, c] = q / pauses[k]
            if k > 0:
                upper[r, c] = q / pauses[k - 1]
    return lower, upper


@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    n_pauses=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_extract_leakage_matches_per_cell_loop(rows, cols, n_pauses, seed):
    rng = np.random.default_rng(seed)
    pauses = list(np.cumsum(rng.uniform(1e-3, 2.0, n_pauses)))
    estimates = rng.uniform(5e-15, 60e-15, (rows, cols))
    estimates[rng.random((rows, cols)) < 0.2] = np.nan  # out of range
    first_fail = rng.integers(0, n_pauses + 1, (rows, cols))
    bitmap = SimpleNamespace(estimates=estimates, shape=(rows, cols))
    bounds = extract_leakage(bitmap, first_fail, pauses, v_write=1.8, v_min=0.9)
    lower, upper = _reference_extract_leakage(estimates, first_fail, pauses, 1.8, 0.9)
    np.testing.assert_array_equal(bounds.lower, lower)
    np.testing.assert_array_equal(bounds.upper, upper)
