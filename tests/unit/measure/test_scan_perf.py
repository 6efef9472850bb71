"""Performance layer of the scan path: caches, bridge routing, stats.

The contract under test: every optimisation is *invisible* in the data.
Cached netlists give bit-identical voltages to freshly built ones, and
the vectorized bridge check routes exactly the macros the old per-cell
walk routed.  Bit-exactness across scan paths is the oracle's
(``tests/property/test_scan_path_oracle.py``).
"""

import pytest

from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectInjector, DefectKind
from repro.measure.scan import ArrayScanner
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.stats import MacroTiming, ScanStats
from repro.units import fF


@pytest.fixture()
def zoo_array(tech):
    """16x8 array (4x2 macros) carrying every defect kind.

    Includes an in-macro bridge and a cross-macro bridge so both
    engine-fallback paths are exercised.
    """
    arr = EDRAMArray(16, 8, tech=tech, macro_cols=2, macro_rows=4)
    injector = DefectInjector(arr)
    injector.inject(0, 0, CellDefect(DefectKind.SHORT))
    injector.inject(2, 3, CellDefect(DefectKind.OPEN))
    injector.inject(5, 5, CellDefect(DefectKind.ACCESS_OPEN))
    injector.inject(7, 1, CellDefect(DefectKind.LOW_CAP, 0.6))
    injector.inject(9, 6, CellDefect(DefectKind.HIGH_CAP, 1.3))
    injector.inject(11, 2, CellDefect(DefectKind.RETENTION, 5.0))
    injector.inject(13, 4, CellDefect(DefectKind.BRIDGE))  # inside a macro
    injector.inject(3, 1, CellDefect(DefectKind.BRIDGE))   # crosses into next macro
    return arr


@pytest.fixture()
def zoo_structure(tech):
    from repro.calibration.design import design_structure

    return design_structure(tech, 4, 2, bitline_rows=16)


class TestScanStats:
    def test_stats_shape_and_tier_counts(self, zoo_array, zoo_structure):
        routing = ArrayScanner(zoo_array, zoo_structure)
        engine = [
            m.index for m in zoo_array.macros() if routing._macro_needs_engine(m)
        ]
        assert engine and len(engine) < zoo_array.num_macros
        for use_kernel in (True, False):
            result = ArrayScanner(
                zoo_array, zoo_structure, use_kernel=use_kernel
            ).scan()
            stats = result.stats
            assert stats is not None
            assert stats.total_cells == zoo_array.num_cells
            assert stats.closed_form_cells + stats.engine_cells == stats.total_cells
            assert stats.engine_cells == int((result.tiers == "e").sum())
            assert stats.wall_seconds > 0
            assert stats.cells_per_second > 0
            # Only macros scanned on their own are timed: the bridged
            # ones on a kernel scan, every macro with the kernel off.
            timed = [t.index for t in stats.macro_timings]
            assert timed == (engine if use_kernel else list(range(zoo_array.num_macros)))
            # Kernel cells and timed cells partition a fault-free scan.
            assert (
                stats.kernel_cells + sum(t.cells for t in stats.macro_timings)
                == stats.total_cells
            )

    def test_macro_timings_carry_tier_markers(self, zoo_array, zoo_structure):
        for use_kernel in (True, False):
            result = ArrayScanner(
                zoo_array, zoo_structure, use_kernel=use_kernel
            ).scan()
            assert result.stats.macro_timings
            for timing in result.stats.macro_timings:
                macro = zoo_array.macro(timing.index)
                tile = result.tiers[macro.row_start:macro.row_stop,
                                    macro.col_start:macro.col_stop]
                assert set(tile.ravel()) == {timing.tier}
                assert timing.cells == macro.num_cells

    def test_summary_and_dict_roundtrip(self, zoo_array, zoo_structure):
        stats = ArrayScanner(zoo_array, zoo_structure).scan().stats
        text = stats.summary()
        assert "cells/s" in text and "closed-form" in text
        payload = stats.to_dict()
        assert payload["total_cells"] == stats.total_cells
        assert payload["cells_per_second"] == stats.cells_per_second
        assert len(payload["macro_timings"]) == len(stats.macro_timings)
        slowest = stats.slowest_macro()
        assert slowest.seconds == max(t.seconds for t in stats.macro_timings)


class TestSequencerNetworkCache:
    def test_repeated_measurements_bit_equal_fresh_builds(self, tech, zoo_structure):
        # ACCESS_OPEN is the trap: its floating storage node keeps charge
        # across flows unless the cached network is properly reset.
        arr = EDRAMArray(4, 2, tech=tech, macro_cols=2, macro_rows=4)
        arr.cell(1, 1).apply_defect(CellDefect(DefectKind.ACCESS_OPEN))
        arr.cell(2, 0).apply_defect(CellDefect(DefectKind.SHORT))
        cached = MeasurementSequencer(arr.macro(0), zoo_structure)
        first = [cached.measure_charge(r, c).vgs for r in range(4) for c in range(2)]
        second = [cached.measure_charge(r, c).vgs for r in range(4) for c in range(2)]
        fresh = [
            MeasurementSequencer(arr.macro(0), zoo_structure).measure_charge(r, c).vgs
            for r in range(4)
            for c in range(2)
        ]
        assert first == second == fresh

    def test_cache_invalidated_on_capacitance_edit(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        seq = MeasurementSequencer(arr.macro(0), structure_2x2)
        before = seq.measure_charge(0, 0).vgs
        arr.cell(0, 0).capacitance = 50 * fF
        after = seq.measure_charge(0, 0).vgs
        assert after > before
        expected = MeasurementSequencer(arr.macro(0), structure_2x2).measure_charge(0, 0).vgs
        assert after == expected

    def test_cache_invalidated_on_defect_injection(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        seq = MeasurementSequencer(arr.macro(0), structure_2x2)
        assert seq.measure_charge(0, 0).code > 0
        arr.cell(0, 0).apply_defect(CellDefect(DefectKind.SHORT))
        assert seq.measure_charge(0, 0).code == 0

    def test_standard_mode_unaffected_by_prior_flows(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        seq = MeasurementSequencer(arr.macro(0), structure_2x2)
        seq.measure_charge(1, 0)
        assert seq.standard_mode_plate_voltage() == pytest.approx(tech.half_vdd)


class TestVectorizedBridgeRouting:
    def test_defect_free_array_skips_engine_entirely(self, tech, structure_8x2):
        arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
        scanner = ArrayScanner(arr, structure_8x2)
        for macro in arr.macros():
            assert not scanner._macro_needs_engine(macro)

    def test_routing_matches_cell_walk(self, zoo_array, zoo_structure):
        scanner = ArrayScanner(zoo_array, zoo_structure)
        for macro in zoo_array.macros():
            walked = any(
                zoo_array.cell(r, c).has_defect(DefectKind.BRIDGE)
                for r in macro.row_range
                for c in macro.columns
            ) or (
                macro.col_start > 0
                and any(
                    zoo_array.cell(r, macro.col_start - 1).has_defect(DefectKind.BRIDGE)
                    for r in macro.row_range
                )
            )
            assert scanner._macro_needs_engine(macro) == walked


class TestDenseHistogram:
    def test_histogram_covers_full_scale(self, tech, structure_2x2):
        arr = EDRAMArray(2, 2, tech=tech)
        result = ArrayScanner(arr, structure_2x2).scan()
        hist = result.code_histogram()
        assert sorted(hist) == list(range(result.num_steps + 1))
        assert sum(hist.values()) == arr.num_cells
        assert all(n >= 0 for n in hist.values())


class TestTimingSummary:
    def _stats(self, seconds):
        timings = [
            MacroTiming(i, "c", 4, value) for i, value in enumerate(seconds)
        ]
        return ScanStats(
            total_cells=4 * len(timings),
            wall_seconds=sum(seconds),
            closed_form_cells=4 * len(timings),
            engine_cells=0,
            macro_timings=timings,
        )

    def test_percentiles_of_known_distribution(self):
        stats = self._stats([0.001 * (i + 1) for i in range(100)])
        summary = stats.timing_summary()
        assert summary["p50"] == pytest.approx(0.0505, rel=1e-6)
        assert summary["p95"] == pytest.approx(0.09505, rel=1e-6)
        assert summary["max"] == pytest.approx(0.100, rel=1e-6)

    def test_empty_timings_summarize_to_zero(self):
        stats = self._stats([])
        assert stats.timing_summary() == {"p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_kernel_fields_surface_in_summary_and_dict(self, tech):
        array = EDRAMArray(8, 4, tech=tech, macro_rows=4, macro_cols=2)
        stats = ArrayScanner(array, None).scan().stats
        assert stats.kernel_cells == array.num_cells
        assert stats.kernel_seconds > 0
        assert "batched pass" in stats.summary()
        # Kernel tiles are not timed one by one: a clean kernel scan
        # has no macro timings and so no straggler to report.
        assert stats.macro_timings == []
        assert stats.slowest_macro() is None
        assert "slowest macro" not in stats.summary()
        payload = stats.to_dict()
        assert payload["kernel_cells"] == array.num_cells
        assert payload["kernel_seconds"] == stats.kernel_seconds

    def test_legacy_scan_reports_zero_kernel_cells(self, tech):
        array = EDRAMArray(8, 4, tech=tech, macro_rows=4, macro_cols=2)
        stats = ArrayScanner(array, None, use_kernel=False).scan().stats
        assert stats.kernel_cells == 0
        assert stats.kernel_seconds == 0.0
        assert "batched pass" not in stats.summary()
