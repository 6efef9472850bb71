"""Array geometry, macro tiling, addressing."""

import numpy as np
import pytest

from repro.edram.array import CellAddress, EDRAMArray
from repro.errors import ArrayConfigError
from repro.units import fF


def _materialized(arr):
    """How many DRAMCell objects the array has built so far."""
    return sum(cell is not None for row in arr._cells for cell in row)


class TestConstruction:
    def test_rejects_bad_dims(self):
        with pytest.raises(ArrayConfigError):
            EDRAMArray(0, 4)

    def test_macro_cols_must_divide(self):
        with pytest.raises(ArrayConfigError):
            EDRAMArray(4, 6, macro_cols=4)

    def test_macro_rows_must_divide(self):
        with pytest.raises(ArrayConfigError):
            EDRAMArray(6, 4, macro_rows=4)

    def test_capacitance_map_shape_checked(self):
        with pytest.raises(ArrayConfigError):
            EDRAMArray(2, 2, capacitance_map=np.ones((3, 3)) * 30 * fF)

    def test_capacitance_map_positivity_checked(self):
        bad = np.full((2, 2), 30 * fF)
        bad[0, 0] = 0.0
        with pytest.raises(ArrayConfigError):
            EDRAMArray(2, 2, capacitance_map=bad)

    def test_capacitance_map_applied(self):
        cap = np.arange(1, 5).reshape(2, 2) * 10 * fF
        arr = EDRAMArray(2, 2, capacitance_map=cap)
        assert arr.cell(1, 1).capacitance == pytest.approx(40 * fF)
        assert np.allclose(arr.capacitance_matrix(), cap)


class TestAddressing:
    def test_cell_bounds(self):
        arr = EDRAMArray(4, 4)
        with pytest.raises(ArrayConfigError):
            arr.cell(4, 0)
        with pytest.raises(ArrayConfigError):
            arr.cell(0, -1)

    def test_addresses_row_major(self):
        arr = EDRAMArray(2, 2)
        assert arr.addresses() == [
            CellAddress(0, 0), CellAddress(0, 1), CellAddress(1, 0), CellAddress(1, 1),
        ]

    def test_num_cells(self):
        assert EDRAMArray(8, 16).num_cells == 128


class TestMacroTiling:
    def test_column_stripe_default(self):
        arr = EDRAMArray(8, 6, macro_cols=2)
        assert arr.num_macros == 3
        assert arr.macro(0).rows == 8

    def test_row_segmentation(self):
        arr = EDRAMArray(8, 6, macro_cols=2, macro_rows=4)
        assert arr.num_macros == 6
        assert arr.macros_per_row == 3
        assert arr.macros_per_col == 2
        tile = arr.macro(4)  # second tile row, middle column group
        assert tile.row_start == 4
        assert tile.col_start == 2

    def test_macro_of(self):
        arr = EDRAMArray(8, 6, macro_cols=2, macro_rows=4)
        assert arr.macro_of(0, 0) == 0
        assert arr.macro_of(3, 5) == 2
        assert arr.macro_of(4, 0) == 3
        assert arr.macro_of(7, 5) == 5
        with pytest.raises(ArrayConfigError):
            arr.macro_of(8, 0)

    def test_macro_local_cell_lookup(self):
        arr = EDRAMArray(8, 6, macro_cols=2, macro_rows=4)
        arr.cell(5, 3).capacitance = 99 * fF
        tile = arr.macro(4)
        assert tile.cell(1, 1).capacitance == pytest.approx(99 * fF)

    def test_macro_local_bounds(self):
        tile = EDRAMArray(8, 6, macro_cols=2, macro_rows=4).macro(0)
        with pytest.raises(ArrayConfigError):
            tile.cell(4, 0)
        with pytest.raises(ArrayConfigError):
            tile.cell(0, 2)

    def test_global_address(self):
        tile = EDRAMArray(8, 6, macro_cols=2, macro_rows=4).macro(4)
        addr = tile.global_address(1, 1)
        assert (addr.row, addr.col) == (5, 3)

    def test_bitline_capacitance_is_full_height(self, tech):
        arr = EDRAMArray(128, 4, macro_cols=2, macro_rows=16)
        tile = arr.macro(0)
        assert tile.bitline_capacitance == pytest.approx(tech.bitline_capacitance(128))

    def test_plate_parasitic_is_tile_sized(self, tech):
        arr = EDRAMArray(128, 4, macro_cols=2, macro_rows=16)
        assert arr.macro(0).plate_parasitic == pytest.approx(tech.plate_parasitic(32))

    def test_macro_index_bounds(self):
        arr = EDRAMArray(4, 4)
        with pytest.raises(ArrayConfigError):
            arr.macro(99)

    def test_cells_enumeration(self):
        tile = EDRAMArray(4, 4, macro_cols=2, macro_rows=2).macro(3)
        triples = tile.cells()
        assert len(triples) == 4
        assert all(cell is tile.cell(r, c) for r, c, cell in triples)


class TestBulkViews:
    def test_effective_capacitance_reflects_defects(self):
        from repro.edram.defects import CellDefect, DefectKind

        arr = EDRAMArray(2, 2)
        arr.cell(0, 0).apply_defect(CellDefect(DefectKind.OPEN))
        eff = arr.effective_capacitance_matrix()
        assert eff[0, 0] == 0.0
        assert eff[1, 1] > 0

    def test_defect_locations(self):
        from repro.edram.defects import CellDefect, DefectKind

        arr = EDRAMArray(2, 2)
        arr.cell(1, 0).apply_defect(CellDefect(DefectKind.SHORT))
        assert arr.defect_locations() == [(1, 0)]

    def test_capacitance_matrix_tracks_direct_mutation(self):
        arr = EDRAMArray(2, 2)
        arr.cell(0, 1).capacitance = 45 * fF
        assert arr.capacitance_matrix()[0, 1] == 45 * fF
        # Returned matrix is a copy: writing it must not corrupt the array.
        view = arr.capacitance_matrix()
        view[1, 1] = 0.0
        assert arr.capacitance_matrix()[1, 1] > 0

    def test_capacitance_matrix_matches_cells_exactly(self):
        rng = np.random.default_rng(5)
        cap = (25 + rng.random((4, 4)) * 10) * fF
        arr = EDRAMArray(4, 4, capacitance_map=cap)
        arr.cell(2, 2).capacitance = 50 * fF
        expected = np.array(
            [[arr.cell(r, c).capacitance for c in range(4)] for r in range(4)]
        )
        assert np.array_equal(arr.capacitance_matrix(), expected)

    def test_defect_kind_matrix_and_mask(self):
        from repro.edram.defects import KIND_CODES, CellDefect, DefectKind

        arr = EDRAMArray(2, 4)
        arr.cell(0, 2).apply_defect(CellDefect(DefectKind.BRIDGE))
        kinds = arr.defect_kind_matrix()
        assert kinds[0, 2] == KIND_CODES[DefectKind.BRIDGE]
        assert (kinds != 0).sum() == 1
        mask = arr.defect_mask(DefectKind.BRIDGE)
        assert mask[0, 2] and mask.sum() == 1
        assert not arr.defect_mask(DefectKind.SHORT).any()

    def test_defect_count_is_per_kind(self):
        from repro.edram.defects import CellDefect, DefectKind

        arr = EDRAMArray(4, 4)
        assert arr.defect_count() == 0
        arr.cell(0, 0).apply_defect(CellDefect(DefectKind.SHORT))
        arr.cell(1, 1).apply_defect(CellDefect(DefectKind.SHORT))
        arr.cell(2, 2).apply_defect(CellDefect(DefectKind.LOW_CAP, 0.5))
        assert arr.defect_count(DefectKind.SHORT) == 2
        assert arr.defect_count(DefectKind.LOW_CAP) == 1
        assert arr.defect_count(DefectKind.BRIDGE) == 0
        assert arr.defect_count() == 3

    def test_parametric_defect_updates_capacitance_matrix(self):
        from repro.edram.defects import CellDefect, DefectKind

        arr = EDRAMArray(2, 2)
        before = arr.capacitance_matrix()[0, 0]
        arr.cell(0, 0).apply_defect(CellDefect(DefectKind.LOW_CAP, 0.5))
        assert arr.capacitance_matrix()[0, 0] == before * 0.5

    def test_version_bumps_on_mutation(self):
        from repro.edram.defects import CellDefect, DefectKind

        arr = EDRAMArray(2, 2)
        v0 = arr.version
        arr.cell(0, 0).capacitance = 31 * fF
        assert arr.version > v0
        v1 = arr.version
        arr.cell(1, 1).apply_defect(CellDefect(DefectKind.OPEN))
        assert arr.version > v1
        # Behavioural state (stored data) is not a structural mutation.
        v2 = arr.version
        arr.cell(0, 1).write(1.8, 0.0)
        assert arr.version == v2

    def test_kernel_scan_materializes_no_cells(self):
        from repro.measure.scan import ArrayScanner

        rng = np.random.default_rng(3)
        arr = EDRAMArray(
            16, 8, macro_rows=8, capacitance_map=(25 + 10 * rng.random((16, 8))) * fF
        )
        result = ArrayScanner(arr).scan()
        assert result.stats.kernel_cells == arr.num_cells
        assert _materialized(arr) == 0

    def test_functional_tests_materialize_no_cells(self):
        from repro.baselines.march import march_c_minus
        from repro.edram.operations import ArrayOperations

        arr = EDRAMArray(16, 8)
        assert arr._functional is None  # allocated by ArrayOperations only
        assert march_c_minus().run(ArrayOperations(arr)).fail_count == 0
        assert _materialized(arr) == 0

    def test_cell_materialized_after_bulk_edit_reads_the_plane(self):
        from repro.technologies.fecap import FeCapArray

        arr = FeCapArray(4, 2, read_disturb=0.1)
        early = arr.cell(0, 0)
        arr.apply_read_disturb()
        assert _materialized(arr) == 1
        plane = arr.capacitance_view()
        assert arr.cell(3, 1).capacitance == plane[3, 1]
        assert arr.cell(3, 1).leak_current == arr.leak_view()[3, 1]
        # A cell that existed before the edit was synced, not replaced.
        assert arr.cell(0, 0) is early
        assert early.capacitance == plane[0, 0]

    def test_macro_bulk_views_are_tile_slices(self):
        from repro.edram.defects import CellDefect, DefectKind

        arr = EDRAMArray(4, 4, macro_cols=2, macro_rows=2)
        arr.cell(2, 3).capacitance = 44 * fF
        arr.cell(3, 2).apply_defect(CellDefect(DefectKind.SHORT))
        macro = arr.macro(arr.macro_of(2, 3))
        assert macro.capacitance_matrix()[0, 1] == 44 * fF
        assert macro.defect_mask(DefectKind.SHORT)[1, 0]
        assert macro.capacitance_matrix().shape == (2, 2)
