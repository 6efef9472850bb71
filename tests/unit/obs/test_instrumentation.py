"""The instrumented hot paths: scans, the sequencer, the pipeline.

Two invariants matter most:

- **bit-exactness** — attaching a tracer/metrics registry must not
  change a single code (the no-op default path is the production path);
- **coverage** — an engine-tier scan must produce the full
  scan → macro → phase 1–5 span tree the docs promise (the engine
  solves a macro's cells as one stack, so phases 1–4 carry ``cells=``),
  and a single-cell measurement its cell → phase 1–5 tree.
"""

import numpy as np
import pytest

from repro.diagnosis.pipeline import DiagnosisPipeline
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs import MetricsRegistry, Tracer, summarize_trace
from repro.units import fF

PHASES = (
    "phase:discharge", "phase:charge", "phase:isolate",
    "phase:share", "phase:convert",
)


@pytest.fixture()
def bridged_array(tech):
    """8×4 array, two 8×2 macros; the bridge forces macro 0 onto the engine."""
    arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
    arr.cell(2, 0).apply_defect(CellDefect(DefectKind.BRIDGE))
    return arr


class TestBitExactness:
    def test_traced_scan_codes_identical(self, bridged_array, structure_8x2):
        scanner = ArrayScanner(bridged_array, structure_8x2)
        plain = scanner.scan()
        observed = scanner.scan(
            ScanConfig(tracer=Tracer(), metrics=MetricsRegistry())
        )
        assert np.array_equal(plain.codes, observed.codes)
        assert np.array_equal(plain.vgs, observed.vgs)
        assert np.array_equal(plain.tiers, observed.tiers)


class TestSpanCoverage:
    def test_engine_scan_emits_all_five_phases(self, bridged_array, structure_8x2):
        tracer = Tracer()
        ArrayScanner(bridged_array, structure_8x2).scan(ScanConfig(tracer=tracer))
        summary = summarize_trace(tracer.spans)
        assert summary.covers("scan", "macro", *PHASES)
        assert "cell" not in summary.names  # one stacked solve per macro
        assert summary.max_depth == 2  # scan > macro > phase

    def test_every_engine_cell_has_exactly_five_phase_children(
        self, bridged_array, structure_8x2
    ):
        # Each engine cell is solved once in each of the four stacked
        # phases of its macro, then converted in the macro's phase 5.
        tracer = Tracer()
        ArrayScanner(bridged_array, structure_8x2).scan(ScanConfig(tracer=tracer))
        macros = [s for s in tracer.spans if s.name == "macro"]
        assert len(macros) == 1  # one engine macro of 8x2
        children = tracer.children(macros[0])
        assert [c.name for c in children] == list(PHASES)
        assert [c.attributes.get("cells") for c in children] == [16] * 4 + [None]

    def test_macro_spans_for_engine_macros_kernel_span_for_the_rest(
        self, bridged_array, structure_8x2
    ):
        # Tracing no longer forces the per-macro fallback: closed-form
        # macros ride the batched kernel (one "kernel" span), and only
        # engine macros get their own macro → phase subtree.
        tracer = Tracer()
        ArrayScanner(bridged_array, structure_8x2).scan(ScanConfig(tracer=tracer))
        macros = [s for s in tracer.spans if s.name == "macro"]
        assert [m.attributes["tier"] for m in macros] == ["engine"]
        kernels = [s for s in tracer.spans if s.name == "kernel"]
        assert len(kernels) == 1
        assert kernels[0].attributes["seconds"] >= 0

    def test_cell_spans_carry_code_and_address(self, bridged_array, structure_8x2):
        # A single-cell measurement keeps its own cell span; on every
        # engine cell it carries the address and the code the stacked
        # scan produced.
        scanner = ArrayScanner(bridged_array, structure_8x2)
        result = scanner.scan()
        engine = list(zip(*np.nonzero(result.tiers == "e")))
        assert len(engine) == 16
        for row, col in engine:
            tracer = Tracer()
            scanner.measure_cell(int(row), int(col), ScanConfig(tracer=tracer))
            (cell,) = tracer.roots()
            assert (cell.attributes["row"], cell.attributes["col"]) == (row, col)
            assert cell.attributes["code"] == int(result.codes[row, col])
            assert [c.name for c in tracer.children(cell)] == list(PHASES)

    def test_child_intervals_inside_parent(self, bridged_array, structure_8x2):
        tracer = Tracer()
        ArrayScanner(bridged_array, structure_8x2).scan(ScanConfig(tracer=tracer))
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert span.end <= parent.end


class TestScanMetrics:
    def test_tier_routing_counters(self, bridged_array, structure_8x2):
        metrics = MetricsRegistry()
        ArrayScanner(bridged_array, structure_8x2).scan(ScanConfig(metrics=metrics))
        assert metrics.counter("scan.runs").value == 1
        assert metrics.counter("scan.cells").value == 32
        assert metrics.counter("scan.cells_engine").value == 16
        assert metrics.counter("scan.cells_closed_form").value == 16
        assert (
            metrics.counter("scan.cells_engine").value
            + metrics.counter("scan.cells_closed_form").value
            == metrics.counter("scan.cells").value
        )

    def test_codes_histogram_matches_result(self, bridged_array, structure_8x2):
        metrics = MetricsRegistry()
        result = ArrayScanner(bridged_array, structure_8x2).scan(
            ScanConfig(metrics=metrics)
        )
        hist = metrics.histogram("scan.codes")
        assert hist.count == result.codes.size
        assert hist.sum == int(result.codes.sum())

    def test_engine_layers_report_ambiently(self, bridged_array, structure_8x2):
        metrics = MetricsRegistry()
        ArrayScanner(bridged_array, structure_8x2).scan(ScanConfig(metrics=metrics))
        # One netlist build per engine macro, and one stacked call
        # measures all of its cells: nothing to restore.
        assert metrics.counter("sequencer.netlist_cache_misses").value == 1
        assert metrics.counter("sequencer.netlist_cache_hits").value == 0
        # Phase 1 settles once for the macro; phases 2–4 settle each of
        # its 16 cells once.
        assert metrics.counter("charge.settles").value == 1 + 3 * 16

    def test_scan_stats_folded_into_registry(self, tech, structure_8x2):
        arr = EDRAMArray(16, 4, tech=tech, macro_cols=2, macro_rows=8)
        metrics = MetricsRegistry()
        result = ArrayScanner(arr, structure_8x2).scan(ScanConfig(metrics=metrics))
        assert metrics.gauge("scan.wall_seconds").value == pytest.approx(
            result.stats.wall_seconds
        )
        # A clean kernel scan: every cell through the kernel's slab
        # passes; a force_engine scan: every cell through the engine.
        assert metrics.counter("scan.cells_kernel").value == arr.num_cells
        assert metrics.gauge("scan.kernel_seconds").value == (
            result.stats.kernel_seconds
        ) > 0
        metrics = MetricsRegistry()
        ArrayScanner(arr, structure_8x2).scan(
            ScanConfig(force_engine=True, metrics=metrics)
        )
        assert metrics.counter("scan.cells_engine").value == arr.num_cells
        assert metrics.counter("scan.cells_kernel").value == 0

    def test_counters_accumulate_across_scans(self, tech, structure_2x2):
        metrics = MetricsRegistry()
        scanner = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2)
        scanner.scan(ScanConfig(metrics=metrics))
        scanner.scan(ScanConfig(metrics=metrics))
        assert metrics.counter("scan.runs").value == 2
        assert metrics.counter("scan.cells").value == 8


class TestPipelineInstrumentation:
    def test_diagnosis_span_tree(self, tech):
        arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
        arr.cell(1, 1).apply_defect(CellDefect(DefectKind.LOW_CAP, factor=0.5))
        tracer = Tracer()
        pipeline = DiagnosisPipeline(spec_lo=24 * fF, spec_hi=36 * fF)
        pipeline.run(arr, ScanConfig(tracer=tracer))
        summary = summarize_trace(tracer.spans)
        assert summary.covers(
            "diagnosis", "stage:functional", "stage:scan", "stage:classify",
            "stage:root_cause", "stage:process", "stage:repair",
        )
        roots = tracer.roots()
        assert [r.name for r in roots] == ["diagnosis"]
        # The scan's own tree nests inside the scan stage.
        stage_scan = next(s for s in tracer.spans if s.name == "stage:scan")
        scan_spans = [s for s in tracer.spans if s.name == "scan"]
        assert len(scan_spans) == 1
        assert scan_spans[0].parent_id == stage_scan.span_id


class TestSequencerTracing:
    def test_measure_charge_span(self, tech, structure_2x2):
        from repro.measure.sequencer import MeasurementSequencer

        arr = EDRAMArray(2, 2, tech=tech)
        tracer = Tracer()
        seq = MeasurementSequencer(arr.macro(0), structure_2x2)
        plain = seq.measure_charge(1, 0)
        traced = seq.measure_charge(1, 0, tracer=tracer)
        assert traced.code == plain.code
        cell = tracer.roots()[0]
        assert cell.name == "cell"
        assert cell.attributes["tier"] == "charge"
        assert cell.attributes["code"] == traced.code

    @pytest.mark.slow
    def test_measure_transient_span(self, tech, structure_2x2):
        from repro.measure.sequencer import MeasurementSequencer

        arr = EDRAMArray(2, 2, tech=tech)
        tracer = Tracer()
        seq = MeasurementSequencer(arr.macro(0), structure_2x2)
        result = seq.measure_transient(0, 0, tracer=tracer)
        cell = tracer.roots()[0]
        assert cell.attributes["tier"] == "transient"
        assert cell.attributes["code"] == result.code
        names = {c.name for c in tracer.children(cell)}
        assert "integrate" in names
        assert "phase:convert" in names
