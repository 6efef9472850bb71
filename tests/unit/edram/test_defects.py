"""Defect taxonomy and injector placement."""

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectInjector, DefectKind
from repro.errors import DefectError


class _PerCellInjector(DefectInjector):
    """Reference placement: walk every candidate cell object in row-major
    order, as the injector did before it read the defect-kind plane."""

    def _free(self, row, col, kind):
        return self.array.cell(row, col).defect is None and not (
            kind == DefectKind.BRIDGE and col + 1 >= self.array.cols
        )

    def _place(self, kind, factor, cells):
        locations = [(r, c) for r, c in cells if self._free(r, c, kind)]
        for row, col in locations:
            self.inject(row, col, CellDefect(kind, factor))
        return locations

    def scatter(self, kind, count, factor=1.0):
        candidates = [
            (r, c)
            for r in range(self.array.rows)
            for c in range(self.array.cols)
            if self._free(r, c, kind)
        ]
        chosen = self._rng.choice(len(candidates), size=count, replace=False)
        return self._place(kind, factor, [candidates[int(i)] for i in chosen])

    def cluster(self, kind, center, radius, factor=1.0):
        r0, c0 = center
        return self._place(kind, factor, [
            (r, c)
            for r in range(max(0, r0 - radius), min(self.array.rows, r0 + radius + 1))
            for c in range(max(0, c0 - radius), min(self.array.cols, c0 + radius + 1))
        ])

    def row_stripe(self, kind, row, factor=1.0):
        return self._place(kind, factor, [(row, c) for c in range(self.array.cols)])

    def column_stripe(self, kind, col, factor=1.0):
        return self._place(kind, factor, [(r, col) for r in range(self.array.rows)])


def _campaign(injector, seed):
    """A mixed placement sequence; later steps must skip earlier defects."""
    rng = np.random.default_rng(seed)
    rows, cols = injector.array.rows, injector.array.cols
    return [
        injector.scatter(DefectKind.SHORT, 5),
        injector.cluster(DefectKind.LOW_CAP, (int(rng.integers(rows)), cols - 1), 2, 0.5),
        injector.row_stripe(DefectKind.BRIDGE, int(rng.integers(rows))),
        injector.scatter(DefectKind.BRIDGE, 7),
        injector.column_stripe(DefectKind.OPEN, int(rng.integers(cols - 1))),
        injector.cluster(DefectKind.BRIDGE, (int(rng.integers(rows)), cols - 2), 1),
        injector.scatter(DefectKind.RETENTION, 9, factor=50.0),
    ]


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_placement_matches_per_cell_walk(seed):
    planes, walk = EDRAMArray(12, 10), EDRAMArray(12, 10)
    fast = DefectInjector(planes, seed=seed)
    slow = _PerCellInjector(walk, seed=seed)
    assert _campaign(fast, seed) == _campaign(slow, seed)
    assert fast.injected == slow.injected
    np.testing.assert_array_equal(planes.defect_kind_matrix(), walk.defect_kind_matrix())
    np.testing.assert_array_equal(planes.capacitance_matrix(), walk.capacitance_matrix())


def test_defective_build_materializes_only_defective_cells():
    from repro.technologies import get

    array = get("edram").build_array(256, 256, macro_rows=16, seed=3, with_defects=True)
    built = {
        (r, c)
        for r, row in enumerate(array._cells)
        for c, cell in enumerate(row)
        if cell is not None
    }
    assert built == set(array.defect_locations())


class TestCellDefectValidation:
    def test_low_cap_factor_must_shrink(self):
        with pytest.raises(DefectError):
            CellDefect(DefectKind.LOW_CAP, factor=1.2)

    def test_high_cap_factor_must_grow(self):
        with pytest.raises(DefectError):
            CellDefect(DefectKind.HIGH_CAP, factor=0.8)

    def test_retention_factor_must_grow(self):
        with pytest.raises(DefectError):
            CellDefect(DefectKind.RETENTION, factor=0.5)

    def test_parametric_needs_positive_factor(self):
        with pytest.raises(DefectError):
            CellDefect(DefectKind.LOW_CAP, factor=-0.5)

    def test_structural_kinds_ignore_factor(self):
        assert CellDefect(DefectKind.SHORT).factor == 1.0


class TestInjector:
    def test_inject_records_ground_truth(self):
        arr = EDRAMArray(4, 4)
        inj = DefectInjector(arr)
        d = CellDefect(DefectKind.OPEN)
        inj.inject(1, 2, d)
        assert inj.injected == [(1, 2, d)]
        assert arr.cell(1, 2).has_defect(DefectKind.OPEN)

    def test_bridge_needs_right_neighbour(self):
        arr = EDRAMArray(4, 4)
        inj = DefectInjector(arr)
        with pytest.raises(DefectError):
            inj.inject(0, 3, CellDefect(DefectKind.BRIDGE))

    def test_inject_many(self):
        arr = EDRAMArray(4, 4)
        inj = DefectInjector(arr)
        inj.inject_many(
            [(0, 0, CellDefect(DefectKind.SHORT)), (1, 1, CellDefect(DefectKind.OPEN))]
        )
        assert len(inj.injected) == 2

    def test_scatter_is_deterministic(self):
        locs_a = DefectInjector(EDRAMArray(8, 8), seed=3).scatter(DefectKind.OPEN, 5)
        locs_b = DefectInjector(EDRAMArray(8, 8), seed=3).scatter(DefectKind.OPEN, 5)
        assert locs_a == locs_b

    def test_scatter_distinct_cells(self):
        arr = EDRAMArray(8, 8)
        locs = DefectInjector(arr, seed=0).scatter(DefectKind.SHORT, 10)
        assert len(set(locs)) == 10

    def test_scatter_overflows(self):
        arr = EDRAMArray(2, 2)
        with pytest.raises(DefectError):
            DefectInjector(arr).scatter(DefectKind.OPEN, 5)

    def test_scatter_avoids_occupied_cells(self):
        arr = EDRAMArray(2, 2)
        inj = DefectInjector(arr, seed=1)
        inj.inject(0, 0, CellDefect(DefectKind.SHORT))
        locs = inj.scatter(DefectKind.OPEN, 3)
        assert (0, 0) not in locs

    def test_cluster_respects_bounds(self):
        arr = EDRAMArray(4, 4)
        locs = DefectInjector(arr).cluster(DefectKind.LOW_CAP, center=(0, 0), radius=1, factor=0.5)
        assert set(locs) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_row_stripe(self):
        arr = EDRAMArray(4, 4)
        locs = DefectInjector(arr).row_stripe(DefectKind.OPEN, 2)
        assert locs == [(2, c) for c in range(4)]

    def test_row_stripe_bridge_skips_last_column(self):
        arr = EDRAMArray(4, 4)
        locs = DefectInjector(arr).row_stripe(DefectKind.BRIDGE, 1)
        assert locs == [(1, 0), (1, 1), (1, 2)]

    def test_column_stripe(self):
        arr = EDRAMArray(4, 4)
        locs = DefectInjector(arr).column_stripe(DefectKind.ACCESS_OPEN, 3)
        assert locs == [(r, 3) for r in range(4)]

    def test_column_stripe_bridge_on_last_column_rejected(self):
        arr = EDRAMArray(4, 4)
        with pytest.raises(DefectError):
            DefectInjector(arr).column_stripe(DefectKind.BRIDGE, 3)

    def test_stripe_bounds_checked(self):
        arr = EDRAMArray(4, 4)
        with pytest.raises(DefectError):
            DefectInjector(arr).row_stripe(DefectKind.OPEN, 4)
        with pytest.raises(DefectError):
            DefectInjector(arr).column_stripe(DefectKind.OPEN, -1)
