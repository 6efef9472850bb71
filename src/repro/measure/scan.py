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

Macros containing BRIDGE defects fall back to the exact charge engine
cell by cell — bridge topologies are many and rare, and the engine *is*
the reference.  Agreement between the closed form and the engine is
pinned by integration tests.

Performance layer (see docs/architecture.md "Scan driver: plan →
execute → assemble"): the closed form is the batched kernel of
:mod:`repro.measure.kernel`, one pass per macro-row slab whose kernel
tiles land together (tile by tile only when a fault plan is armed),
and the engine tier reuses one cached netlist per macro.
Process parallelism lives in the wafer fleet (:mod:`repro.fleet`),
not inside a scan.

Observability (see docs/architecture.md "Observability"): every entry
point takes a :class:`~repro.measure.config.ScanConfig` whose tracer
records the scan → macro → cell → phase span tree and whose metrics
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
from repro.errors import (
    ConvergenceError,
    MeasurementError,
    ReproError,
    ScanMismatchError,
    SingularCircuitError,
)
from repro.measure.config import ScanConfig
from repro.measure.kernel import KernelConstants, closed_form_vgs_plane
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.stats import MacroTiming, ScanStats
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
    """

    codes: np.ndarray
    vgs: np.ndarray
    num_steps: int
    tiers: np.ndarray
    stats: ScanStats | None = field(default=None, compare=False)
    quality: np.ndarray | None = field(default=None, compare=False)

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
    use_kernel:
        Allow :meth:`scan` to plan batched-kernel slabs
        (:mod:`repro.measure.kernel`).  ``False`` plans one macro per
        slab through the per-macro driver — the benchmark's
        cached-serial baseline.
    """

    def __init__(
        self,
        array: EDRAMArray,
        structure: MeasurementStructure | None = None,
        *,
        use_kernel: bool = True,
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
        # Batched kernel (repro.measure.kernel); the scan planner skips
        # it only under force_engine or when disabled here outright
        # (benchmarks pin the per-macro baseline through this seam).
        self._use_kernel = use_kernel

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

        The engine tier's per-cell fallback and the per-macro drivers
        call this; batched scans call :meth:`kernel_planes` instead.
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
        self, macro: MacroCell, config: ScanConfig
    ) -> tuple[np.ndarray, np.ndarray, str, np.ndarray]:
        """Scan one macro with ambient metrics already installed.

        The scan driver calls this directly — the contextvar install
        happens once per scan, not once per macro.
        Returns ``(vgs, codes, tier, quality)``; the quality plane is
        all-GOOD unless a solver failure forced a fallback.
        """
        tracer = config.tracer
        with tracer.span("macro", index=macro.index, cells=macro.num_cells) as span:
            quality = quality_plane((macro.rows, self.array.macro_cols))
            if config.force_engine or self._macro_needs_engine(macro):
                vgs = self._engine_macro_vgs(macro, tracer, quality)
                codes = self.codes_for_vgs(vgs)
                tier = "e"
                span.attributes["tier"] = "engine"
            else:
                try:
                    fault_point("scan.closed_form", macro=macro.index)
                    vgs = self.closed_form_vgs(macro)
                except ReproError:
                    # Closed form refused the whole tile: placeholder
                    # planes, every cell flagged FAILED — the scan keeps
                    # its shape and the bitmap shows the hole.
                    vgs = np.zeros((macro.rows, self.array.macro_cols))
                    quality[:, :] = CellQuality.FAILED
                codes = self.codes_for_vgs(vgs)
                tier = "c"
                span.attributes["tier"] = "closed-form"
            degraded = int((quality != CellQuality.GOOD).sum())
            if degraded:
                span.attributes["fallback_cells"] = degraded
            return vgs, codes, tier, quality

    def _engine_macro_vgs(
        self, macro: MacroCell, tracer, quality: np.ndarray
    ) -> np.ndarray:
        """Engine tier with the per-cell fallback ladder.

        A cell whose exact solve fails (singular network, no
        convergence) is re-estimated once from the macro's closed form
        and flagged DEGRADED; if even the closed form refuses, the cell
        becomes a flagged FAILED placeholder.  Either way the scan
        continues — one pathological cell must never abort the bitmap.
        """
        sequencer = self._sequencer(macro)
        mc = self.array.macro_cols
        vgs = np.zeros((macro.rows, mc))
        fallback: np.ndarray | None | bool = None
        for r in range(macro.rows):
            for c in range(mc):
                try:
                    vgs[r, c] = sequencer.measure_charge(
                        r, c, tracer=tracer
                    ).vgs
                except (SingularCircuitError, ConvergenceError):
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
        return vgs

    def scan(self, config: ScanConfig | None = None) -> ScanResult:
        """Scan the whole array; returns the assembled :class:`ScanResult`.

        ``config`` is a :class:`~repro.measure.config.ScanConfig`;
        ``None`` uses the defaults: no preflight, closed-form routing,
        observability off.

        The returned result carries a :class:`ScanStats` telemetry
        record in ``result.stats``; when ``config.metrics`` is a real
        registry the stats are folded into it as well, and
        ``config.tracer`` receives the scan → kernel/macro → cell →
        phase span tree.  ``config.progress`` is advanced as tiles land
        (live completion/throughput/ETA), and when ``config.ledger`` is
        set a run manifest (provenance + per-run scalars) is appended
        to it on completion.

        One driver, three steps (see docs/architecture.md "Scan
        driver"): :meth:`_plan` cuts the remaining macros into
        macro-row slabs (single macros with the kernel off), each slab
        runs one kernel pass with its engine macros overwritten, and
        :class:`_Assembler` lands the tiles and persists once per slab.
        With ``config.checkpoint`` set, an interrupted scan resumes
        bit-exact from its last persisted slab.
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
            # The kernel evaluates every closed-form macro unless
            # force_engine pins the per-macro drivers.  It runs one pass
            # per macro-row slab and lands each slab's kernel tiles in
            # one call; only an armed fault plan needs each tile landed
            # on its own.
            kernel_ok = self._use_kernel and not config.force_engine
            per_tile = active_fault_plan() is not None
            out = _Assembler(self.array, config)
            done = out.resume(config)
            timings: list[MacroTiming] = []
            kernel_cells = 0
            kernel_seconds = 0.0
            with tracer.span(
                "scan", rows=rows, cols=cols, force_engine=config.force_engine
            ) as scan_span:
                config.progress.start(rows * cols, label="scan", units="cells")
                for index in sorted(done):
                    # Checkpointed macros are already in the planes.
                    config.progress.advance(self.array.macro(index).num_cells)
                # Engine routing is decided up front (O(1) for
                # bridge-free arrays) so the kernel passes and the
                # engine overwrites share one verdict per macro.
                engine: frozenset[int] = frozenset()
                if kernel_ok and self.array.defect_count(DefectKind.BRIDGE):
                    engine = frozenset(
                        i for i in range(self.array.num_macros)
                        if i not in done
                        and self._macro_needs_engine(self.array.macro(i))
                    )
                cap = self.array.capacitance_view()
                kinds = self.array.defect_kind_view()
                for rsl, slab in self._plan(done, kernel_ok):
                    if kernel_ok:
                        s_vgs, s_codes, s_seconds = self.kernel_planes(
                            cap[rsl], kinds[rsl], tracer
                        )
                        kernel_seconds += s_seconds
                    if kernel_ok and not per_tile:
                        # One landing for the slab's kernel tiles.
                        per_macro = [i for i in slab if i in engine]
                        tiles = (
                            [i for i in slab if i not in engine]
                            if per_macro else slab
                        )
                        out.land_slab(rsl, tiles, s_vgs, s_codes)
                        kernel_cells += len(tiles) * out.cells_per_macro
                    else:
                        per_macro = slab
                    for index in per_macro:
                        macro = self.array.macro(index)
                        if kernel_ok and index not in engine:
                            csl = slice(macro.col_start, macro.col_stop)
                            m_vgs, m_codes, m_quality = self._kernel_tile(
                                macro, s_vgs[:, csl], s_codes[:, csl]
                            )
                            if m_quality is None:
                                kernel_cells += macro.num_cells
                            out.place(macro, m_vgs, m_codes, "c", m_quality)
                        else:
                            macro_start = perf_counter()
                            m_vgs, m_codes, tier, m_quality = self._scan_macro(
                                macro, config
                            )
                            timings.append(MacroTiming(
                                index, tier, macro.num_cells,
                                perf_counter() - macro_start,
                            ))
                            out.place(macro, m_vgs, m_codes, tier, m_quality)
                    out.persist(slab, rsl)
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
                # Plan order is macro-index order.
                macro_timings=timings,
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
        run_id = checkpointer.run_id if checkpointer is not None else None
        if config.ledger is not None:
            config.ledger.record_scan(
                result,
                config,
                tech=self.structure.tech.name,
                cpu_seconds=process_time() - cpu_start,
                run_id=run_id,
                extra_scalars=backend.extra_scalars(self.array),
            )
        if checkpointer is not None:
            # The manifest row is in; the in-flight state is obsolete.
            checkpointer.finish()
        return result

    def _plan(
        self, done: set[int], kernel_ok: bool
    ) -> list[tuple[slice, range | list[int]]]:
        """Slabs of macro indices still to scan, with their row slices.

        One macro row per slab for the kernel; one macro per slab when
        the kernel is off, so nothing runs that is not persisted right
        after.
        """
        array = self.array
        per_row = array.macros_per_row
        per_slab = per_row if kernel_ok else 1
        mr = array.macro_rows
        plan: list[tuple[slice, range | list[int]]] = []
        for first in range(0, array.num_macros, per_slab):
            slab: range | list[int] = range(first, first + per_slab)
            if done:
                slab = [index for index in slab if index not in done]
                if not slab:
                    continue
            row = first // per_row * mr
            plan.append((slice(row, row + mr), slab))
        return plan

    def _kernel_tile(
        self, macro: MacroCell, vgs: np.ndarray, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One macro's kernel tile, or the FAILED placeholder.

        The ``scan.closed_form`` fault site fires here as it does in
        :meth:`_scan_macro`; a refusal yields zeros flagged FAILED.
        The quality is ``None`` for a good tile (all-GOOD).
        """
        try:
            fault_point("scan.closed_form", macro=macro.index)
        except ReproError:
            vgs = np.zeros(vgs.shape)
            failed = np.full(vgs.shape, CellQuality.FAILED, dtype=np.uint8)
            return vgs, self.codes_for_vgs(vgs), failed
        return vgs, codes, None

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
    """The scan's result planes and the landing of tiles in them.

    Every macro lands exactly once — restored from the checkpoint, as
    part of a kernel slab, or as its own tile — and :meth:`check`
    proves it before the result is built.  Tile landings advance
    progress and fire the ``scan.macro_done`` fault site; a slab does
    its progress in one call and fires no per-macro site, which keeps
    a scan's bookkeeping off its hot path (slabs land whole only with
    no fault plan armed).
    """

    def __init__(self, array: EDRAMArray, config: ScanConfig) -> None:
        rows, cols = array.rows, array.cols
        self.array = array
        self.progress = config.progress
        self.checkpointer = config.checkpoint
        self.cells_per_macro = array.macro_rows * array.macro_cols
        self.codes = np.zeros((rows, cols), dtype=int)
        self.vgs = np.zeros((rows, cols))
        self.tiers = np.full((rows, cols), "c", dtype="<U1")
        self.quality = quality_plane((rows, cols))
        self._landed = np.zeros(array.num_macros, dtype=np.int64)

    def resume(self, config: ScanConfig) -> set[int]:
        """Start (or resume) the checkpoint; returns the macros already done.

        A resumed scan continues into the checkpointed planes; a fresh
        one adopts the (identical) arrays it just handed over, so each
        persist saves live state.
        """
        if self.checkpointer is None:
            return set()
        state = self.checkpointer.start(
            "scan",
            config_fingerprint(config),
            {"codes": self.codes, "vgs": self.vgs, "tiers": self.tiers,
             "quality": self.quality},
            total=self.array.num_macros,
        )
        self.codes = state.arrays["codes"]
        self.vgs = state.arrays["vgs"]
        self.tiers = state.arrays["tiers"]
        self.quality = state.arrays["quality"]
        done = set(state.completed)
        self._landed[sorted(done)] += 1
        return done

    def land_slab(
        self, rsl: slice, tiles: range | list[int], vgs: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Land the kernel ``tiles`` of one row slab from its kernel planes.

        A whole slab lands as one band; a slab that a per-macro
        checkpoint left half done, or that holds engine macros, lands
        only its kernel tiles' columns.  A kernel tile's tiers and
        quality are still their blank ``"c"`` and GOOD.
        """
        array = self.array
        if len(tiles) == array.macros_per_row:
            columns = [slice(None)]
        else:
            columns = [
                slice(m.col_start, m.col_stop) for m in map(array.macro, tiles)
            ]
        for csl in columns:
            self.vgs[rsl, csl] = vgs[:, csl]
            self.codes[rsl, csl] = codes[:, csl]
        self._landed[tiles] += 1
        self.progress.advance(self.cells_per_macro * len(tiles))

    def place(
        self,
        macro: MacroCell,
        m_vgs: np.ndarray,
        m_codes: np.ndarray,
        tier: str,
        m_quality: np.ndarray | None,
    ) -> None:
        """Land one macro's tile (``m_quality=None`` means all-GOOD)."""
        rsl = slice(macro.row_start, macro.row_stop)
        csl = slice(macro.col_start, macro.col_stop)
        self.vgs[rsl, csl] = m_vgs
        self.codes[rsl, csl] = m_codes
        self.tiers[rsl, csl] = tier
        self.quality[rsl, csl] = (
            CellQuality.GOOD if m_quality is None else m_quality
        )
        self._landed[macro.index] += 1
        self.progress.advance(macro.num_cells)
        fault_point("scan.macro_done", macro=macro.index)

    def persist(self, slab: range | list[int], rows: slice) -> None:
        """Mark a finished slab done: one journal segment of its rows."""
        if self.checkpointer is not None:
            self.checkpointer.mark_done(*slab, rows=rows)

    def check(self) -> None:
        """Every macro landed exactly once (no gap, no double write)."""
        wrong = np.flatnonzero(self._landed != 1)
        if wrong.size:
            sample = wrong[:8].tolist()
            raise ScanMismatchError(
                f"{wrong.size} macros did not land exactly once "
                f"(first {sample}: {self._landed[sample].tolist()} landings)"
            )
