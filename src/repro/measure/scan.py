"""Whole-array measurement scans — the "Analog Bitmap" producer.

The paper's end goal: "build an Analog Bitmap of the capacitor values of
the cells in the memory array".  :class:`ArrayScanner` measures every
cell of every macro-cell and assembles the code matrix.

For array-scale work the scanner evaluates a **vectorized closed form**
of the charge-tier algebra.  After phases 1–4, every capacitive branch
hanging on the plate–gate island reduces to an equivalent capacitance
``X`` with an equivalent pre-charge voltage of V_DD (they all rode up
with the plate during the CHARGE phase), except the reference side
(C_REF + wiring) which joins discharged; hence

    V_GS = V_DD · ΣX / (ΣX + C_REF_total)

with, per branch:

- target cell: ``C_m`` (its far plate is actively grounded),
- same-row neighbours: ``series(C_j, C_BL + C_js)`` (far side floats on
  the bitline),
- every off-row cell: ``series(C_k, C_js)`` (far side floats on the
  storage junction),
- plate wiring: ``C_pp``,
- defect variants (shorts substitute their island's ground capacitance,
  opens vanish) as implemented in
  :func:`repro.measure.kernel.closed_form_vgs_plane`.

Macros containing BRIDGE defects fall back to the exact charge engine,
one stacked solve per macro — bridge topologies are many and rare, and
the engine *is* the reference.  Agreement between the closed form and
the engine is pinned by integration tests.

Performance layer (see docs/architecture.md "Scan driver: plan →
execute → assemble"): every scan is a run of macro-row slabs, whatever
the tier.  A slab gets one pass of the batched kernel of
:mod:`repro.measure.kernel` (none when every macro in it rides the
engine), its engine macros are overwritten, and it lands as one band
(tile by tile only when a fault plan is armed) and persists once.  The
engine tier reuses one cached netlist per macro.
Process parallelism lives in the wafer fleet (:mod:`repro.fleet`),
not inside a scan.

Observability (see docs/architecture.md "Observability"): every entry
point takes a :class:`~repro.measure.config.ScanConfig` whose tracer
records the scan → macro → phase span tree and whose metrics
registry, installed ambiently for the scan, collects tier counts, code
histograms, cache hits and solver statistics.  Both default to no-op
implementations pinned bit-exact against the un-instrumented path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro.edram.array import EDRAMArray, MacroCell
from repro.edram.defects import DefectKind
from repro.errors import MeasurementError, ReproError, ScanMismatchError
from repro.measure.config import ScanConfig
from repro.measure.kernel import KernelConstants, closed_form_vgs_plane
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.stats import ScanStats
from repro.measure.structure import MeasurementDesign, MeasurementStructure
from repro.obs.metrics import active_metrics, use_metrics
from repro.obs.trace import NULL_TRACER
from repro.obs.ledger import config_fingerprint
from repro.resilience.faults import active_fault_plan, fault_point, inject
from repro.resilience.quality import CellQuality, quality_counts, quality_plane


def _ambient_metrics(config: ScanConfig):
    """Install the config's registry ambiently iff it is a real one."""
    return use_metrics(config.metrics) if config.metrics.enabled else nullcontext()


def _ambient_faults(config: ScanConfig):
    """Arm the config's fault plan for the scan iff one is attached."""
    return inject(config.faults) if config.faults is not None else nullcontext()


@dataclass
class ScanResult:
    """Raw output of a full-array scan.

    Attributes
    ----------
    codes:
        (rows, cols) int array of measurement codes, 0..num_steps.
    vgs:
        (rows, cols) float array of internal V_GS values (simulation
        observability; not available on silicon).
    num_steps:
        The converter depth used.
    tiers:
        (rows, cols) array of 'c' (closed form) / 'e' (engine) markers
        recording which tier produced each cell.
    stats:
        Telemetry of the scan that produced this result (None for
        results assembled by hand or loaded from disk — stats describe a
        run, not the data, and are not persisted).
    quality:
        (rows, cols) uint8 plane of
        :class:`~repro.resilience.quality.CellQuality` flags (0 GOOD,
        1 DEGRADED, 2 FAILED).  All-zero for clean scans; ``None``
        coerces to all-GOOD so hand-assembled results stay terse.
    run_id:
        The run id this scan's planes were recorded under (``None``
        when no ledger recorded them).
    """

    codes: np.ndarray
    vgs: np.ndarray
    num_steps: int
    tiers: np.ndarray
    stats: ScanStats | None = field(default=None, compare=False)
    quality: np.ndarray | None = field(default=None, compare=False)
    run_id: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Hand-assembled results (tests, loaders) may pass plain lists;
        # coerce once here so .shape and arithmetic are always array ops.
        self.codes = np.asarray(self.codes)
        self.vgs = np.asarray(self.vgs)
        self.tiers = np.asarray(self.tiers)
        if self.vgs.shape != self.codes.shape or self.tiers.shape != self.codes.shape:
            raise ScanMismatchError(
                f"scan planes disagree: codes {self.codes.shape}, "
                f"vgs {self.vgs.shape}, tiers {self.tiers.shape}"
            )
        if self.quality is None:
            self.quality = quality_plane(self.codes.shape)
        else:
            self.quality = np.asarray(self.quality, dtype=np.uint8)
            if self.quality.shape != self.codes.shape:
                raise ScanMismatchError(
                    f"quality plane shape {self.quality.shape} disagrees "
                    f"with codes {self.codes.shape}"
                )

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the scanned array."""
        return self.codes.shape  # type: ignore[return-value]

    def code_histogram(self) -> dict[int, int]:
        """Count of cells per code value, dense over ``0..num_steps``.

        Every code of the converter scale appears as a key — zero counts
        included — so downstream consumers (calibration, plotting,
        benches) can histogram directly without re-densifying.
        """
        hist = {code: 0 for code in range(self.num_steps + 1)}
        values, counts = np.unique(self.codes, return_counts=True)
        for v, n in zip(values, counts):
            hist[int(v)] = int(n)
        return hist

    def quality_counts(self) -> dict[str, int]:
        """``{"good": n, "degraded": n, "failed": n}`` over all cells."""
        return quality_counts(self.quality)

    def diff(self, reference: "ScanResult") -> np.ndarray:
        """Per-cell code delta against a reference scan (self − ref).

        Golden-die subtraction: comparing a die against a known-good
        reference cancels the systematic background exactly (both carry
        the same macro parasitics), leaving process/instrument drift and
        defects.  Raises :class:`~repro.errors.ScanMismatchError` when
        the reference is not a comparable scan (wrong type, shape, or
        converter depth) instead of surfacing a numpy broadcast error.
        """
        if not isinstance(reference, ScanResult):
            raise ScanMismatchError(
                f"diff reference must be a ScanResult, got {type(reference).__name__}"
            )
        if reference.shape != self.shape:
            raise ScanMismatchError(
                f"scan shapes differ: {self.shape} vs {reference.shape}"
            )
        if reference.num_steps != self.num_steps:
            raise ScanMismatchError(
                "scans use different converter depths: "
                f"{self.num_steps} vs {reference.num_steps}"
            )
        return self.codes - reference.codes


class ArrayScanner:
    """Scan every cell of an array through its macro structures.

    Parameters
    ----------
    array:
        The eDRAM array to scan.
    structure:
        The measurement structure design shared by all macros (they are
        identical copies in silicon).  Defaults to the reference design;
        for non-reference macro geometries pass a structure produced by
        :func:`repro.calibration.design.design_structure` so the code
        scale matches the capacitance range.
    """

    def __init__(
        self, array: EDRAMArray, structure: MeasurementStructure | None = None
    ) -> None:
        self.array = array
        self.structure = (
            structure
            if structure is not None
            else MeasurementStructure(array.tech, MeasurementDesign())
        )
        # Memoized on the structure: one bisection solve shared by every
        # scanner bound to it (e.g. one scanner per wafer die).
        self._boundaries = self.structure.code_boundaries()
        # Engine-tier sequencers cached per macro so the charge netlist
        # is built once per macro, not once per cell.
        self._sequencers: dict[int, MeasurementSequencer] = {}
        # Closed-form invariants; identical for every macro (the silicon
        # copies are exact), so paying the property chain per macro per
        # scan is pure overhead.
        tech = self.structure.tech
        m0 = self.array.macro(0)
        self._cjs = tech.storage_junction_cap
        self._cbl = m0.bitline_capacitance
        self._cpp = m0.plate_parasitic
        self._creft = self.structure.c_ref_total
        self._vdd = tech.vdd

    def codes_for_vgs(self, vgs: np.ndarray) -> np.ndarray:
        """Vectorized static conversion (matches ``code_for_vgs``)."""
        return self.structure.codes_for_vgs(vgs)

    def kernel_constants(self) -> KernelConstants:
        """The cached closed-form constants, packaged for the kernel."""
        return KernelConstants(
            cjs=self._cjs,
            cbl=self._cbl,
            cpp=self._cpp,
            creft=self._creft,
            vdd=self._vdd,
            macro_rows=self.array.macro_rows,
            macro_cols=self.array.macro_cols,
        )

    def kernel_planes(
        self, cap: np.ndarray, kinds: np.ndarray, tracer=NULL_TRACER
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One batched kernel + code-conversion pass; ``(vgs, codes, seconds)``.

        ``cap``/``kinds`` are this array's planes, or several arrays of
        its exact geometry stacked row-wise (a wafer's dies): macro
        tiles never straddle two stacked arrays, so every array's slice
        of the result is bit-identical to scanning it alone.  The pass
        is one ``kernel`` span on ``tracer``.
        """
        start = perf_counter()
        with tracer.span("kernel", rows=cap.shape[0], cols=cap.shape[1]) as span:
            vgs = closed_form_vgs_plane(cap, kinds, self.kernel_constants())
            codes = self.codes_for_vgs(vgs)
        seconds = perf_counter() - start
        span.attributes["seconds"] = seconds
        return vgs, codes, seconds

    def _sequencer(self, macro: MacroCell) -> MeasurementSequencer:
        sequencer = self._sequencers.get(macro.index)
        if sequencer is None:
            sequencer = MeasurementSequencer(macro, self.structure)
            self._sequencers[macro.index] = sequencer
        return sequencer

    def closed_form_vgs(self, macro: MacroCell) -> np.ndarray:
        """V_GS for every cell of ``macro``: the kernel on its one tile.

        The engine tier's per-cell fallback calls this; scans call
        :meth:`kernel_planes` once per slab instead.
        """
        return closed_form_vgs_plane(
            macro.capacitance_matrix(),
            macro.defect_kind_matrix(),
            self.kernel_constants(),
        )

    # ------------------------------------------------------------------
    # Scan drivers
    # ------------------------------------------------------------------

    def _macro_needs_engine(self, macro: MacroCell) -> bool:
        """Bridges (own or incoming) force the exact engine.

        Defect-free arrays exit on the O(1) bridge count; otherwise one
        vectorized mask slice covers the macro's own cells plus the
        column immediately left of it (incoming cross-macro bridges).
        """
        if self.array.defect_count(DefectKind.BRIDGE) == 0:
            return False
        bridge = self.array.defect_mask(DefectKind.BRIDGE)
        col_lo = macro.col_start - 1 if macro.col_start > 0 else macro.col_start
        return bool(
            bridge[macro.row_start : macro.row_stop, col_lo : macro.col_stop].any()
        )

    def _scan_macro(
        self, macro: MacroCell, tracer
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scan one engine macro in its ``macro`` span; ``(vgs, codes, quality)``.

        All of the macro's cells go to the sequencer in one
        :meth:`~repro.measure.sequencer.MeasurementSequencer.measure_charge`
        call.  A cell whose exact solve failed (singular network, no
        convergence) is re-estimated once from the macro's closed form
        and flagged DEGRADED; if even the closed form refuses, the cell
        becomes a flagged FAILED placeholder.  Either way the scan
        continues — one pathological cell must never abort the bitmap.
        """
        mc = self.array.macro_cols
        with tracer.span("macro", index=macro.index, cells=macro.num_cells) as span:
            quality = quality_plane((macro.rows, mc))
            rows, cols = np.divmod(np.arange(macro.rows * mc), mc)
            batch = self._sequencer(macro).measure_charge(rows, cols, tracer=tracer)
            vgs = batch.vgs.reshape(macro.rows, mc)
            fallback: np.ndarray | None | bool = None
            for r, c in zip(*np.nonzero(batch.failed.reshape(macro.rows, mc))):
                if fallback is None:
                    try:
                        fallback = self.closed_form_vgs(macro)
                    except ReproError:
                        fallback = False
                if fallback is not False:
                    vgs[r, c] = fallback[r, c]
                    quality[r, c] = CellQuality.DEGRADED
                    active_metrics().counter(
                        "scan.cell_fallbacks",
                        "engine cells rescued by the closed form",
                    ).inc()
                else:  # pragma: no cover - closed form is pure algebra
                    vgs[r, c] = 0.0
                    quality[r, c] = CellQuality.FAILED
            with tracer.span("phase:convert"):
                codes = self.codes_for_vgs(vgs)
            span.attributes["tier"] = "engine"
            degraded = int((quality != CellQuality.GOOD).sum())
            if degraded:
                span.attributes["fallback_cells"] = degraded
            return vgs, codes, quality

    def scan(self, config: ScanConfig | None = None) -> ScanResult:
        """Scan the whole array; returns the assembled :class:`ScanResult`.

        ``config`` is a :class:`~repro.measure.config.ScanConfig`;
        ``None`` uses the defaults: no preflight, closed-form routing,
        observability off.

        The returned result carries a :class:`ScanStats` telemetry
        record in ``result.stats``; when ``config.metrics`` is a real
        registry the stats are folded into it as well, and
        ``config.tracer`` receives the scan → kernel/macro → phase span
        tree.  ``config.progress`` is advanced as slabs land
        (live completion/throughput/ETA), and when ``config.ledger`` is
        set a run manifest (provenance, per-run scalars and the
        calibrated bitmap's) is appended to it on completion.

        One driver, three steps (see docs/architecture.md "Scan
        driver"): :meth:`_plan` cuts the remaining macros into
        macro-row slabs, each slab runs one kernel pass (none when
        every macro in it rides the engine) with its engine macros
        overwritten, and :class:`_Assembler` lands the slab and
        persists it.  With ``config.checkpoint`` set, an interrupted
        scan resumes bit-exact from its last persisted slab.
        """
        config = config if config is not None else ScanConfig()
        # Resolve the cell-technology backend and check it matches the
        # array: the backend supplies post-scan physics and per-run
        # scalars, so measuring a FeCap array under config.technology
        # "edram" would silently skip its read-disturb.
        from repro.technologies import get as _get_technology

        backend = _get_technology(config.technology)
        array_technology = getattr(self.array, "technology", "edram")
        if array_technology != config.technology:
            raise MeasurementError(
                f"config.technology is {config.technology!r} but the "
                f"array was fabricated for {array_technology!r}"
            )
        if config.preflight:
            from repro.lint import preflight_array, raise_on_errors

            raise_on_errors(preflight_array(self.array, self.structure))
        tracer = config.tracer
        checkpointer = config.checkpoint
        with _ambient_metrics(config), _ambient_faults(config):
            start = perf_counter()
            cpu_start = process_time()
            rows, cols = self.array.rows, self.array.cols
            out = _Assembler(self.array, config, self.codes_for_vgs)
            done = out.resume(config, self.structure.design.num_steps)
            kernel_cells = 0
            kernel_seconds = 0.0
            with tracer.span(
                "scan", rows=rows, cols=cols, force_engine=config.force_engine
            ) as scan_span:
                config.progress.start(rows * cols, label="scan", units="cells")
                if done:  # checkpointed macros are already in the planes
                    config.progress.advance(len(done) * out.cells_per_macro)
                cap = self.array.capacitance_view()
                kinds = self.array.defect_kind_view()
                for rsl, slab, engine in self._plan(done, config.force_engine):
                    if len(engine) < len(slab):
                        vgs, codes, seconds = self.kernel_planes(
                            cap[rsl], kinds[rsl], tracer
                        )
                        kernel_seconds += seconds
                    else:  # every macro of the slab rides the engine
                        vgs = np.empty((rsl.stop - rsl.start, cols))
                        codes = np.empty(vgs.shape, dtype=int)
                    engine_quality: dict[int, np.ndarray] = {}
                    for index in engine:
                        macro = self.array.macro(index)
                        csl = slice(macro.col_start, macro.col_stop)
                        vgs[:, csl], codes[:, csl], engine_quality[index] = (
                            self._scan_macro(macro, tracer)
                        )
                    kernel_cells += out.land(rsl, slab, vgs, codes, engine_quality)
                config.progress.finish()
                out.check()

                engine_cells = int(np.count_nonzero(out.tiers == "e"))
                scan_span.attributes["engine_cells"] = engine_cells
                # One whole-plane observation instead of one per macro —
                # same distribution, none of the per-tile conversion cost.
                active_metrics().histogram(
                    "scan.codes", "measurement codes emitted"
                ).observe_many(out.codes.ravel())

            quality = out.quality
            stats = ScanStats(
                total_cells=rows * cols,
                wall_seconds=perf_counter() - start,
                closed_form_cells=rows * cols - engine_cells,
                engine_cells=engine_cells,
                kernel_cells=kernel_cells,
                kernel_seconds=kernel_seconds,
                degraded_cells=int((quality == CellQuality.DEGRADED).sum()),
                failed_cells=int((quality == CellQuality.FAILED).sum()),
            )
            stats.to_metrics(active_metrics())
        result = ScanResult(
            codes=out.codes,
            vgs=out.vgs,
            num_steps=self.structure.design.num_steps,
            tiers=out.tiers,
            stats=stats,
            quality=quality,
        )
        # Post-scan physics (e.g. ferroelectric read-disturb) land
        # before the run is recorded, so the ledger's per-run scalars —
        # including the backend extras — chart the state this read left
        # behind.  Backend mutations go through the watched cell
        # attributes, bumping array.version and evicting warm caches.
        backend.after_scan(self.array, result)
        if config.ledger is not None:
            # The record ends the run: it keeps the checkpoint as the
            # artifact and finishes it.
            from repro.bitmap.analog import AnalogBitmap
            from repro.calibration.abacus import Abacus

            bitmap = AnalogBitmap(result, Abacus.for_array(self.structure, self.array))
            result.run_id = config.ledger.record_scan(
                result,
                config,
                array=self.array,
                bitmap=bitmap,
                cpu_seconds=process_time() - cpu_start,
                checkpoint=checkpointer,
            ).run_id
        elif checkpointer is not None:
            checkpointer.finish()
        return result

    def _plan(
        self, done: set[int], force_engine: bool
    ) -> list[tuple[slice, range | list[int], list[int]]]:
        """Slabs still to scan: ``(rows, macros, engine macros)`` each.

        One macro row per slab, whatever the tier.  A slab's engine
        macros are all of its macros under ``force_engine``, otherwise
        those a bridge touches — decided here, once per scan, and
        without a per-macro check on a bridge-free array.
        """
        array = self.array
        per_row, mr = array.macros_per_row, array.macro_rows
        bridged = force_engine or array.defect_count(DefectKind.BRIDGE) > 0
        plan: list[tuple[slice, range | list[int], list[int]]] = []
        for first in range(0, array.num_macros, per_row):
            slab: range | list[int] = range(first, first + per_row)
            if done:
                slab = [index for index in slab if index not in done]
                if not slab:
                    continue
            engine = [
                index for index in slab
                if force_engine or self._macro_needs_engine(array.macro(index))
            ] if bridged else []
            row = first // per_row * mr
            plan.append((slice(row, row + mr), slab, engine))
        return plan

    def measure_cell(
        self, row: int, col: int, config: ScanConfig | None = None
    ) -> "object":
        """Measure one cell by global address through a named tier.

        ``config.tier`` selects ``"charge"`` or ``"transient"``.
        Returns the :class:`~repro.measure.result.MeasurementResult`.
        """
        config = config if config is not None else ScanConfig()
        macro = self.array.macro(self.array.macro_of(row, col))
        lrow = row - macro.row_start
        lcol = col - macro.col_start
        sequencer = self._sequencer(macro)
        with _ambient_metrics(config):
            if config.tier == "charge":
                return sequencer.measure_charge(lrow, lcol, tracer=config.tracer)
            return sequencer.measure_transient(lrow, lcol, tracer=config.tracer)


class _Assembler:
    """The scan's result planes and the landing of slabs in them.

    Every macro lands exactly once — restored from the checkpoint or as
    part of its slab — and :meth:`check` proves it before the result is
    built.  A slab lands as one band with one progress advance; only an
    armed fault plan walks it tile by tile, firing the
    ``scan.closed_form`` and ``scan.macro_done`` sites per macro, which
    keeps a scan's bookkeeping off its hot path.
    """

    def __init__(self, array: EDRAMArray, config: ScanConfig, convert) -> None:
        rows, cols = array.rows, array.cols
        self.array = array
        self.progress = config.progress
        self.checkpointer = config.checkpoint
        self.per_tile = active_fault_plan() is not None
        #: V_GS → codes, for the placeholder of a refused tile.
        self.convert = convert
        self.cells_per_macro = array.macro_rows * array.macro_cols
        self.codes = np.zeros((rows, cols), dtype=int)
        self.vgs = np.zeros((rows, cols))
        self.tiers = np.full((rows, cols), "c", dtype="<U1")
        self.quality = quality_plane((rows, cols))
        self._landed = np.zeros(array.num_macros, dtype=np.int64)

    def resume(self, config: ScanConfig, num_steps: int) -> set[int]:
        """Start (or resume) the checkpoint; returns the macros already done.

        A resumed scan continues into the checkpointed planes; a fresh
        one adopts the (identical) arrays it just handed over, so each
        persist saves live state.  ``num_steps`` in the meta makes the
        finished file a scan run file.
        """
        if self.checkpointer is None:
            return set()
        state = self.checkpointer.start(
            "scan",
            config_fingerprint(config),
            {"codes": self.codes, "vgs": self.vgs, "tiers": self.tiers,
             "quality": self.quality},
            total=self.array.num_macros,
            meta={"num_steps": int(num_steps)},
        )
        self.codes = state.arrays["codes"]
        self.vgs = state.arrays["vgs"]
        self.tiers = state.arrays["tiers"]
        self.quality = state.arrays["quality"]
        done = set(state.completed)
        self._landed[sorted(done)] += 1
        return done

    def land(
        self,
        rsl: slice,
        slab: range | list[int],
        vgs: np.ndarray,
        codes: np.ndarray,
        engine: dict[int, np.ndarray],
    ) -> int:
        """Land one slab's rows, then persist it; returns its GOOD kernel cells.

        ``vgs``/``codes`` are the slab's rows with its engine macros
        already overwritten; ``engine`` maps each engine macro to its
        quality tile.  Kernel tiles keep their blank ``"c"`` tier and
        GOOD quality unless the ``scan.closed_form`` site refuses one:
        it then lands zeros flagged FAILED, so the scan keeps its shape
        and the bitmap shows the hole.  A slab that a checkpoint left
        half done lands only its own tiles' columns.
        """
        array, cells = self.array, self.cells_per_macro
        good = cells * (len(slab) - len(engine))
        for index, quality in engine.items():
            macro = array.macro(index)
            csl = slice(macro.col_start, macro.col_stop)
            self.tiers[rsl, csl] = "e"
            self.quality[rsl, csl] = quality
        if self.per_tile:
            for index in slab:
                macro = array.macro(index)
                csl = slice(macro.col_start, macro.col_stop)
                if index not in engine:
                    try:
                        fault_point("scan.closed_form", macro=index)
                    except ReproError:
                        vgs[:, csl] = 0.0
                        codes[:, csl] = self.convert(vgs[:, csl])
                        self.quality[rsl, csl] = CellQuality.FAILED
                        good -= cells
                self.vgs[rsl, csl] = vgs[:, csl]
                self.codes[rsl, csl] = codes[:, csl]
                self._landed[index] += 1
                self.progress.advance(cells)
                fault_point("scan.macro_done", macro=index)
        else:
            if len(slab) == array.macros_per_row:
                columns = [slice(None)]
            else:
                columns = [
                    slice(m.col_start, m.col_stop) for m in map(array.macro, slab)
                ]
            for csl in columns:
                self.vgs[rsl, csl] = vgs[:, csl]
                self.codes[rsl, csl] = codes[:, csl]
            self._landed[slab] += 1
            self.progress.advance(cells * len(slab))
        if self.checkpointer is not None:
            self.checkpointer.mark_done(*slab, rows=rsl)
        return good

    def check(self) -> None:
        """Every macro landed exactly once (no gap, no double write)."""
        wrong = np.flatnonzero(self._landed != 1)
        if wrong.size:
            sample = wrong[:8].tolist()
            raise ScanMismatchError(
                f"{wrong.size} macros did not land exactly once "
                f"(first {sample}: {self._landed[sample].tolist()} landings)"
            )
