"""Scan-engine performance: kernel vs per-macro serial vs the seed path.

Three generations of the same scan, pinned against each other on a
defect-free 128×64 array, all bit-identical:

1. **seed** — the per-macro driver restored to per-cell Python walks
   (mask building, bridge routing, per-boundary bisection, a fresh
   sequencer per macro); the honest pre-optimisation baseline.
2. **cached serial** — the per-macro driver (``_CachedSerialScanner``,
   kept here: the library scans only in macro-row slabs) with
   incrementally maintained numpy matrices, the memoized boundary
   table and cached netlists.  Must stay ≥ 3× over seed.
3. **kernel** — ``ArrayScanner.scan`` (:mod:`repro.measure.kernel`): one
   vectorized pass per macro-row slab (8 here) instead of 256
   per-macro trips.  Must be ≥ 10× over the cached serial driver, and
   it owns the headline ``cells_per_second``.

Results (cells/second, per-path timings, scan telemetry) are appended
to the ``BENCH_scan.json`` history list at the repo root — a
trajectory, not a snapshot.  Each entry carries a UTC timestamp and
the git revision it was measured at, so ``check_bench_history`` can
chart throughput across commits and flag regressions.

``bench_perf_scan_smoke`` is the CI guard: a small array, a single
round, a fraction of a second.  ``bench_perf_scan_trace_overhead``
pins the observability contract: a fully traced + metered engine-tier
scan must stay within 5% of the untraced wall time and produce
bit-identical codes.  ``bench_perf_scan_record_overhead`` pins the
same 5% budget for the run-ledger path: progress reporting plus
``--record``-style manifest + artifact capture.
"""

import gc
import json
import subprocess
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from conftest import report

from repro.calibration.design import design_structure
from repro.edram.array import EDRAMArray
from repro.edram.defects import DefectKind
from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
from repro.errors import ReproError
from repro.measure.config import ScanConfig
from repro.measure.kernel import _series
from repro.measure.scan import ArrayScanner, ScanResult
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.stats import ScanStats
from repro.obs import JsonlProgress, MetricsRegistry, RunLedger, Tracer
from repro.resilience.faults import fault_point
from repro.resilience.quality import CellQuality, quality_plane
from repro.units import fF

ROWS, COLS = 128, 64
MACRO_ROWS, MACRO_COLS = 16, 2

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scan.json"
HISTORY_CAP = 100


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_JSON.parent, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _append_history(entry):
    """Append ``entry`` to the BENCH_scan.json trajectory.

    Pre-history snapshots (a bare dict) are migrated in place, and the
    list is capped so the file never grows without bound.
    """
    history = []
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text())
        except (OSError, ValueError):
            existing = []
        if isinstance(existing, list):
            history = existing
        elif isinstance(existing, dict):
            history = [existing]
    history.append(entry)
    history = history[-HISTORY_CAP:]
    BENCH_JSON.write_text(json.dumps(history, indent=2) + "\n")
    return history


class _CachedSerialScanner(ArrayScanner):
    """The per-macro serial driver: the kernel's baseline.

    One macro at a time, in macro order: bridge routing, then the
    closed form on the macro's own tile (:meth:`closed_form_vgs`, after
    the ``scan.closed_form`` site) and its code conversion in a
    ``macro`` span — or the engine macro — then the tile's placement
    (vgs, codes, tier, quality), one progress advance and the
    ``scan.macro_done`` site.  It keeps every cache the scanner has
    (memoized boundaries, incrementally maintained matrices, cached
    netlists) and lands planes bit-identical to the slab driver's.
    """

    def scan(self, config=None):
        config = config if config is not None else ScanConfig()
        array, tracer = self.array, config.tracer
        start = time.perf_counter()
        shape = (array.rows, array.cols)
        vgs, codes = np.zeros(shape), np.zeros(shape, dtype=int)
        tiers, quality = np.full(shape, "c", dtype="<U1"), quality_plane(shape)
        config.progress.start(array.num_cells, label="scan", units="cells")
        for macro in array.macros():
            tile = (slice(macro.row_start, macro.row_stop),
                    slice(macro.col_start, macro.col_stop))
            if self._macro_needs_engine(macro):
                m_vgs, m_codes, m_quality = self._scan_macro(macro, tracer)
                tiers[tile] = "e"
            else:
                with tracer.span(
                    "macro", index=macro.index, cells=macro.num_cells
                ) as span:
                    m_quality = quality_plane((macro.rows, array.macro_cols))
                    try:
                        fault_point("scan.closed_form", macro=macro.index)
                        m_vgs = self.closed_form_vgs(macro)
                    except ReproError:
                        m_vgs = np.zeros(m_quality.shape)
                        m_quality[:, :] = CellQuality.FAILED
                    m_codes = self.codes_for_vgs(m_vgs)
                    span.attributes["tier"] = "closed-form"
                    failed = int((m_quality != CellQuality.GOOD).sum())
                    if failed:
                        span.attributes["fallback_cells"] = failed
                tiers[tile] = "c"
            vgs[tile], codes[tile], quality[tile] = m_vgs, m_codes, m_quality
            config.progress.advance(macro.num_cells)
            fault_point("scan.macro_done", macro=macro.index)
        config.progress.finish()
        engine = int(np.count_nonzero(tiers == "e"))
        stats = ScanStats(
            total_cells=array.num_cells,
            wall_seconds=time.perf_counter() - start,
            closed_form_cells=array.num_cells - engine,
            engine_cells=engine,
        )
        return ScanResult(codes=codes, vgs=vgs, tiers=tiers, stats=stats,
                          quality=quality,
                          num_steps=self.structure.design.num_steps)


class _SeedScanner(_CachedSerialScanner):
    """The per-macro driver as it behaved before the performance layer.

    Restores the per-cell Python walks for mask building and bridge
    routing, the per-boundary bisection at construction, and a fresh
    sequencer per macro — the honest baseline, running on the same
    arrays through the same per-macro driver.
    """

    def __init__(self, array, structure):
        super().__init__(array, structure)
        s = self.structure
        self._seed_boundaries = np.array(
            [s.vgs_for_code_boundary(k) for k in range(1, s.design.num_steps + 1)]
        )

    def codes_for_vgs(self, vgs):
        return np.searchsorted(self._seed_boundaries, np.asarray(vgs), side="right")

    def _macro_masks(self, macro):
        rows, mc = macro.rows, self.array.macro_cols
        cap = np.zeros((rows, mc))
        short = np.zeros((rows, mc), dtype=bool)
        open_ = np.zeros((rows, mc), dtype=bool)
        accopen = np.zeros((rows, mc), dtype=bool)
        for r in range(rows):
            for c in range(mc):
                cell = macro.cell(r, c)
                cap[r, c] = cell.capacitance
                short[r, c] = cell.has_defect(DefectKind.SHORT)
                open_[r, c] = cell.has_defect(DefectKind.OPEN)
                accopen[r, c] = cell.has_defect(DefectKind.ACCESS_OPEN)
        return {"cap": cap, "short": short, "open": open_, "accopen": accopen}

    def closed_form_vgs(self, macro):
        tech = self.structure.tech
        m = self._macro_masks(macro)
        cap, short, open_, accopen = m["cap"], m["short"], m["open"], m["accopen"]
        normal = ~(short | open_ | accopen)
        cjs = tech.storage_junction_cap
        cbl = macro.bitline_capacitance
        cpp = macro.plate_parasitic
        creft = self.structure.c_ref_total
        vdd = tech.vdd

        floating_series = _series(cap, cjs)
        off_term = np.where(normal | accopen, floating_series, 0.0)
        off_term = np.where(short, cjs, off_term)

        nbr_term = np.where(normal, _series(cap, cbl + cjs), 0.0)
        nbr_term = np.where(accopen, floating_series, nbr_term)
        nbr_term = np.where(short, cbl + cjs, nbr_term)

        tgt_term = np.where(normal, cap, 0.0)
        tgt_term = np.where(accopen, floating_series, tgt_term)

        off_all = float(off_term.sum())
        off_rows = off_term.sum(axis=1)
        nbr_rows = nbr_term.sum(axis=1)

        x = (
            tgt_term
            + cpp
            + (nbr_rows[:, None] - nbr_term)
            + (off_all - off_rows)[:, None]
        )
        vgs = vdd * x / (x + creft)
        return np.where(short, 0.0, vgs)

    def _macro_needs_engine(self, macro):
        for r in macro.row_range:
            for c in macro.columns:
                if self.array.cell(r, c).has_defect(DefectKind.BRIDGE):
                    return True
            if macro.col_start > 0 and self.array.cell(
                r, macro.col_start - 1
            ).has_defect(DefectKind.BRIDGE):
                return True
        return False

    def _sequencer(self, macro):
        return MeasurementSequencer(macro, self.structure)


def _build(tech, rows=ROWS, cols=COLS):
    cap = compose_maps(
        uniform_map((rows, cols), 30 * fF),
        mismatch_map((rows, cols), 0.8 * fF, seed=7),
    )
    return EDRAMArray(rows, cols, tech=tech, macro_cols=MACRO_COLS,
                      macro_rows=MACRO_ROWS, capacitance_map=cap)


def _best_of(fn, repeats=3):
    """(best wall-seconds, last result) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_perf_scan_speedup(benchmark, tech):
    array = _build(tech)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=ROWS)

    kernel = ArrayScanner(array, structure)
    cached = _CachedSerialScanner(array, structure)
    seed = _SeedScanner(array, structure)

    seed_seconds, seed_scan = _best_of(seed.scan)
    cached_seconds, cached_scan = _best_of(cached.scan)
    fast_scan = benchmark(kernel.scan)
    # Sub-millisecond timings on shared hardware need many samples for a
    # stable minimum; fold in the benchmark fixture's rounds (hundreds)
    # when available so one noisy 20-sample window cannot skew the
    # recorded throughput.
    kernel_seconds, _ = _best_of(kernel.scan, repeats=20)
    try:
        kernel_seconds = min(kernel_seconds, benchmark.stats.stats.min)
    except AttributeError:  # plain-function run without the fixture
        pass

    # The optimisations must be invisible in the data.
    for baseline in (seed_scan, cached_scan):
        for plane in ("codes", "vgs", "tiers", "quality"):
            assert np.array_equal(getattr(fast_scan, plane), getattr(baseline, plane))
    assert fast_scan.stats.kernel_cells == array.num_cells

    speedup = seed_seconds / cached_seconds
    kernel_speedup = cached_seconds / kernel_seconds
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "array": [ROWS, COLS],
        "macro": [MACRO_ROWS, MACRO_COLS],
        "seed_seconds": seed_seconds,
        "cached_serial_seconds": cached_seconds,
        "kernel_serial_seconds": kernel_seconds,
        "speedup_serial_vs_seed": speedup,
        "kernel_speedup_vs_serial": kernel_speedup,
        "cells_per_second": array.num_cells / kernel_seconds,
        "stats": fast_scan.stats.to_dict(),
    }
    history = _append_history(entry)

    report(
        "PERF: batched kernel vs per-macro serial vs seed path",
        "\n".join([
            f"array {ROWS}x{COLS} ({array.num_macros} tiles of "
            f"{MACRO_ROWS}x{MACRO_COLS}), defect-free",
            f"seed path      : {seed_seconds * 1e3:8.1f} ms",
            f"cached serial  : {cached_seconds * 1e3:8.1f} ms  "
            f"({speedup:.1f}x over seed)",
            f"batched kernel : {kernel_seconds * 1e3:8.2f} ms  "
            f"({kernel_speedup:.1f}x over serial, "
            f"{array.num_cells / kernel_seconds:,.0f} cells/s)",
            f"appended to {BENCH_JSON.name} "
            f"({len(history)} entr{'y' if len(history) == 1 else 'ies'} "
            f"at {entry['git_rev']})",
        ]),
    )

    assert speedup >= 3.0, f"serial cached path only {speedup:.2f}x over seed"
    assert kernel_speedup >= 10.0, (
        f"batched kernel only {kernel_speedup:.2f}x over the per-macro "
        f"serial driver (needs >= 10x)"
    )


def bench_perf_scan_trace_overhead(tech):
    """Observability guard: full tracing + metrics must cost < 5%.

    Engine-tier workload (``force_engine``) — the worst case for the
    tracer: every macro opens six spans (its own and five phases) and
    the engine's stacked solve leaves little numeric work per span.

    Measurement notes, hard-won on shared hardware:

    - the second run of any back-to-back pair measures systematically
      slower (cache and scheduler disturbance), so each round
      alternates which path goes first and the comparison uses best-of
      minima — the least-disturbed observation of each path;
    - GC is paused during the timed region: the traced path allocates
      (spans), so cyclic collections — whose cost scales with the
      *session's* live-object count, not the scan's — would otherwise
      land only on one side of the comparison;
    - multi-second background-load bursts can still poison an entire
      measurement, so the gate allows up to three independent attempts
      and passes on the first one under budget.  A genuine regression
      fails all three deterministically.
    """
    rows, cols = 16, 4
    array = _build(tech, rows=rows, cols=cols)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=rows)
    scanner = ArrayScanner(array, structure)
    plain_config = ScanConfig(force_engine=True)
    baseline = scanner.scan(plain_config)  # warms the netlist cache

    def run_plain():
        t0 = time.perf_counter()
        scan = scanner.scan(plain_config)
        return time.perf_counter() - t0, scan

    def run_traced():
        tracer, metrics = Tracer(), MetricsRegistry()
        config = ScanConfig(force_engine=True, tracer=tracer, metrics=metrics)
        t0 = time.perf_counter()
        scan = scanner.scan(config)
        return time.perf_counter() - t0, scan, tracer

    traced_scan, tracer = None, None

    def measure():
        nonlocal traced_scan, tracer
        plain_times, traced_times = [], []
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(20):
                if i % 2 == 0:
                    seconds, _ = run_plain()
                    plain_times.append(seconds)
                    seconds, traced_scan, tracer = run_traced()
                    traced_times.append(seconds)
                else:
                    seconds, traced_scan, tracer = run_traced()
                    traced_times.append(seconds)
                    seconds, _ = run_plain()
                    plain_times.append(seconds)
        finally:
            if gc_was_enabled:
                gc.enable()
        return min(plain_times), min(traced_times)

    attempts = []
    for _ in range(3):
        plain_best, traced_best = measure()
        attempts.append(traced_best / plain_best - 1)
        if attempts[-1] < 0.05:
            break
    overhead = min(attempts)

    # Observability must be invisible in the data...
    assert np.array_equal(traced_scan.codes, baseline.codes)
    assert np.array_equal(traced_scan.vgs, baseline.vgs)
    # ...and actually observing: one scan root, a span per macro, the
    # paper's five phases under each, phases 1–4 solving every cell.
    assert len(tracer.roots()) == 1
    macro_spans = [s for s in tracer.spans if s.name == "macro"]
    assert len(macro_spans) == array.num_macros
    assert all(len(tracer.children(s)) == 5 for s in macro_spans)
    assert sum(
        c.attributes["cells"] for s in macro_spans for c in tracer.children(s)
        if c.name == "phase:share"
    ) == array.num_cells

    report(
        "PERF: tracer + metrics overhead on an engine-tier scan",
        "\n".join([
            f"array {rows}x{cols}, force_engine, {len(tracer)} spans/scan",
            f"plain  best-of-20: {plain_best * 1e3:8.2f} ms",
            f"traced best-of-20: {traced_best * 1e3:8.2f} ms",
            f"overhead         : {overhead * 100:+.2f}%  (budget < 5%, "
            f"{len(attempts)} attempt(s))",
        ]),
    )

    assert overhead < 0.05, (
        f"tracer overhead {overhead * 100:.2f}% exceeds 5% budget "
        f"(attempts: {', '.join(f'{a * 100:+.2f}%' for a in attempts)})"
    )


def bench_perf_scan_record_overhead(tech):
    """Run-ledger guard: progress + ``--record`` must cost < 5%.

    Same engine-tier workload and measurement discipline as the tracer
    gate (order-alternating rounds, GC paused, best-of minima, three
    independent attempts).  The recorded path streams JSONL progress
    events and writes a full manifest + npz artifact per scan — the
    whole ``repro scan --record --progress-jsonl`` hot path.
    """
    rows, cols = 16, 4
    array = _build(tech, rows=rows, cols=cols)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=rows)
    scanner = ArrayScanner(array, structure)
    plain_config = ScanConfig(force_engine=True)
    baseline = scanner.scan(plain_config)  # warms the netlist cache

    def run_plain():
        t0 = time.perf_counter()
        scan = scanner.scan(plain_config)
        return time.perf_counter() - t0, scan

    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(Path(tmp) / "runs")
        progress_sink = open(Path(tmp) / "progress.jsonl", "w", encoding="utf-8")

        def run_recorded():
            config = ScanConfig(
                force_engine=True,
                progress=JsonlProgress(progress_sink),
                ledger=ledger,
            )
            t0 = time.perf_counter()
            scan = scanner.scan(config)
            return time.perf_counter() - t0, scan

        recorded_scan = None

        def measure():
            nonlocal recorded_scan
            plain_times, recorded_times = [], []
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for i in range(20):
                    if i % 2 == 0:
                        seconds, _ = run_plain()
                        plain_times.append(seconds)
                        seconds, recorded_scan = run_recorded()
                        recorded_times.append(seconds)
                    else:
                        seconds, recorded_scan = run_recorded()
                        recorded_times.append(seconds)
                        seconds, _ = run_plain()
                        plain_times.append(seconds)
            finally:
                if gc_was_enabled:
                    gc.enable()
            return min(plain_times), min(recorded_times)

        attempts = []
        try:
            for _ in range(3):
                plain_best, recorded_best = measure()
                attempts.append(recorded_best / plain_best - 1)
                if attempts[-1] < 0.05:
                    break
        finally:
            progress_sink.close()
        overhead = min(attempts)

        # Recording must be invisible in the data...
        assert np.array_equal(recorded_scan.codes, baseline.codes)
        assert np.array_equal(recorded_scan.vgs, baseline.vgs)
        # ...and actually recording: a manifest per recorded scan, each
        # with a loadable artifact that round-trips the codes.
        manifests = ledger.runs()
        assert len(manifests) >= 20
        assert all(m.kind == "scan" for m in manifests)
        reloaded = ledger.load_artifact(manifests[-1])
        assert np.array_equal(reloaded.codes, baseline.codes)

    report(
        "PERF: progress + run-ledger overhead on an engine-tier scan",
        "\n".join([
            f"array {rows}x{cols}, force_engine, manifest + npz + "
            f"JSONL progress per scan",
            f"plain    best-of-20: {plain_best * 1e3:8.2f} ms",
            f"recorded best-of-20: {recorded_best * 1e3:8.2f} ms",
            f"overhead           : {overhead * 100:+.2f}%  (budget < 5%, "
            f"{len(attempts)} attempt(s))",
        ]),
    )

    assert overhead < 0.05, (
        f"record overhead {overhead * 100:.2f}% exceeds 5% budget "
        f"(attempts: {', '.join(f'{a * 100:+.2f}%' for a in attempts)})"
    )


def bench_perf_scan_resilience_overhead(tech):
    """Resilience guard: an armed fault plan must cost < 5% on a clean scan.

    The resilience layer adds a fault-point probe per cell and macro and
    a quality plane per macro.  On a *clean* scan (fault plan armed but
    empty, nothing fires) all of that must be invisible:
    the probe is one context-variable read, the quality plane is zeros.
    Same engine-tier workload and measurement discipline as the tracer
    gate (order-alternating rounds, GC paused, best-of minima, three
    independent attempts).
    """
    from repro.resilience import FaultPlan

    rows, cols = 16, 4
    array = _build(tech, rows=rows, cols=cols)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=rows)
    scanner = ArrayScanner(array, structure)
    plain_config = ScanConfig(force_engine=True)
    armed_config = ScanConfig(force_engine=True, faults=FaultPlan([]))
    baseline = scanner.scan(plain_config)  # warms the netlist cache

    def run(config):
        t0 = time.perf_counter()
        scan = scanner.scan(config)
        return time.perf_counter() - t0, scan

    armed_scan = None

    def measure():
        nonlocal armed_scan
        plain_times, armed_times = [], []
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(20):
                if i % 2 == 0:
                    seconds, _ = run(plain_config)
                    plain_times.append(seconds)
                    seconds, armed_scan = run(armed_config)
                    armed_times.append(seconds)
                else:
                    seconds, armed_scan = run(armed_config)
                    armed_times.append(seconds)
                    seconds, _ = run(plain_config)
                    plain_times.append(seconds)
        finally:
            if gc_was_enabled:
                gc.enable()
        return min(plain_times), min(armed_times)

    attempts = []
    for _ in range(3):
        plain_best, armed_best = measure()
        attempts.append(armed_best / plain_best - 1)
        if attempts[-1] < 0.05:
            break
    overhead = min(attempts)

    # The armed plan must be invisible in the data...
    assert np.array_equal(armed_scan.codes, baseline.codes)
    assert np.array_equal(armed_scan.vgs, baseline.vgs)
    # ...and the clean scan must report a clean quality plane.
    assert not armed_scan.quality.any()
    assert armed_scan.stats.degraded_cells == 0
    assert armed_scan.stats.failed_cells == 0

    report(
        "PERF: armed resilience overhead on a clean engine-tier scan",
        "\n".join([
            f"array {rows}x{cols}, force_engine, empty fault plan armed",
            f"plain best-of-20: {plain_best * 1e3:8.2f} ms",
            f"armed best-of-20: {armed_best * 1e3:8.2f} ms",
            f"overhead        : {overhead * 100:+.2f}%  (budget < 5%, "
            f"{len(attempts)} attempt(s))",
        ]),
    )

    assert overhead < 0.05, (
        f"resilience overhead {overhead * 100:.2f}% exceeds 5% budget "
        f"(attempts: {', '.join(f'{a * 100:+.2f}%' for a in attempts)})"
    )


def bench_perf_scan_registry_overhead(tech):
    """Technology-registry guard: indirection must cost < 5% on eDRAM.

    Every scan now resolves its cell-technology backend through
    ``repro.technologies.get`` (name lookup, cache probe, self-identity
    check) and dispatches the ``after_scan``/``extra_scalars`` hooks.
    On the warm eDRAM path all of that must be invisible: the instance
    cache is hot, the hooks are no-ops.  The baseline swaps the
    registry lookup for a pre-bound closure returning the cached
    backend — the idealized zero-indirection resolution — so the
    measured delta is exactly what the API seam added.  Same
    measurement discipline as the other overhead gates
    (order-alternating rounds, GC paused, best-of minima, three
    independent attempts).
    """
    import repro.technologies as technologies

    rows, cols = 16, 4
    array = _build(tech, rows=rows, cols=cols)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=rows)
    scanner = ArrayScanner(array, structure)
    config = ScanConfig(force_engine=True, technology="edram")
    baseline = scanner.scan(config)  # warms the netlist + instance caches

    registry_get = technologies.get
    backend = registry_get("edram")

    def direct_get(name):
        return backend

    def run():
        t0 = time.perf_counter()
        scan = scanner.scan(config)
        return time.perf_counter() - t0, scan

    registry_scan = None

    def measure():
        nonlocal registry_scan
        direct_times, registry_times = [], []
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(20):
                first_direct = i % 2 == 0
                for arm_is_direct in (first_direct, not first_direct):
                    technologies.get = direct_get if arm_is_direct else registry_get
                    try:
                        seconds, scan = run()
                    finally:
                        technologies.get = registry_get
                    if arm_is_direct:
                        direct_times.append(seconds)
                    else:
                        registry_times.append(seconds)
                        registry_scan = scan
        finally:
            if gc_was_enabled:
                gc.enable()
        return min(direct_times), min(registry_times)

    attempts = []
    for _ in range(3):
        direct_best, registry_best = measure()
        attempts.append(registry_best / direct_best - 1)
        if attempts[-1] < 0.05:
            break
    overhead = min(attempts)

    # The indirection must be invisible in the data.
    assert np.array_equal(registry_scan.codes, baseline.codes)
    assert np.array_equal(registry_scan.vgs, baseline.vgs)
    assert registry_scan.stats.kernel_cells == 0  # force_engine honoured

    report(
        "PERF: technology-registry indirection on a warm eDRAM scan",
        "\n".join([
            f"array {rows}x{cols}, force_engine, hot instance cache",
            f"direct   best-of-20: {direct_best * 1e3:8.2f} ms",
            f"registry best-of-20: {registry_best * 1e3:8.2f} ms",
            f"overhead           : {overhead * 100:+.2f}%  (budget < 5%, "
            f"{len(attempts)} attempt(s))",
        ]),
    )

    assert overhead < 0.05, (
        f"registry overhead {overhead * 100:.2f}% exceeds 5% budget "
        f"(attempts: {', '.join(f'{a * 100:+.2f}%' for a in attempts)})"
    )


def bench_perf_scan_checkpoint_cost(tech, tmp_path, monkeypatch):
    """Write-cost gate: a checkpointed scan writes each row about once.

    A 512×512 checkpointed scan (32 macro-row slabs) must land planes
    bit-identical to a plain scan, make exactly 1 + slabs persists (the
    header's durable write, then one segment append per slab) and
    persist at most 1.25× one set of result planes in total.  These are
    counts and bytes, so the gate is deterministic; wall times are
    reported, not gated, because fsync latency varies from host to host.
    """
    import repro.resilience.checkpoint as checkpoint_module
    from repro.resilience import Checkpointer

    rows = cols = 512
    array = _build(tech, rows=rows, cols=cols)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=rows)
    scanner = ArrayScanner(array, structure)
    plain_seconds, plain = _best_of(scanner.scan)

    written = []
    durable_write = checkpoint_module.durable_write
    durable_append = checkpoint_module.durable_append

    def counting_write(path, writer):
        durable_write(path, writer)
        written.append(path.stat().st_size)
        return path

    def counting_append(path, data, **kwargs):
        durable_append(path, data, **kwargs)
        written.append(len(data))
        return path

    def checkpointed():
        written.clear()
        return scanner.scan(ScanConfig(checkpoint=Checkpointer(tmp_path)))

    monkeypatch.setattr(checkpoint_module, "durable_write", counting_write)
    monkeypatch.setattr(checkpoint_module, "durable_append", counting_append)
    checkpoint_seconds, scan = _best_of(checkpointed)

    planes = ("codes", "vgs", "tiers", "quality")
    for plane in planes:
        assert np.array_equal(getattr(scan, plane), getattr(plain, plane)), plane
    slabs = array.macros_per_col
    plane_bytes = sum(getattr(plain, plane).nbytes for plane in planes)
    persisted = sum(written)
    report(
        "PERF: checkpointed scan write cost",
        "\n".join([
            f"array {rows}x{cols}, {MACRO_ROWS}x{MACRO_COLS} macros, "
            f"{slabs} slabs",
            f"persists         : {len(written)}  (header + 1 append per slab)",
            f"persisted bytes  : {persisted / 1e6:.2f} MB  "
            f"({persisted / plane_bytes:.2f}x one set of planes "
            f"{plane_bytes / 1e6:.2f} MB)",
            f"plain scan       : {plain_seconds * 1e3:8.1f} ms (best of 3)",
            f"checkpointed scan: {checkpoint_seconds * 1e3:8.1f} ms (best of 3, "
            f"{checkpoint_seconds / plain_seconds:.2f}x, not gated)",
        ]),
    )
    assert len(written) == 1 + slabs
    assert persisted <= 1.25 * plane_bytes
    assert list(Checkpointer(tmp_path).ledger.checkpoint_dir.iterdir()) == []


def bench_perf_scan_smoke(benchmark, tech):
    """CI smoke: one round on a small array, stats sanity only."""
    array = _build(tech, rows=32, cols=8)
    structure = design_structure(tech, MACRO_ROWS, MACRO_COLS, bitline_rows=32)
    scanner = ArrayScanner(array, structure)
    scan = benchmark.pedantic(scanner.scan, rounds=1, iterations=1)
    assert scan.stats is not None
    assert scan.stats.total_cells == array.num_cells
    assert scan.stats.cells_per_second > 0
    assert (scan.tiers == "c").all()
    # A defect-free un-instrumented scan must route through the kernel.
    assert scan.stats.kernel_cells == array.num_cells
    assert scan.stats.kernel_seconds > 0
