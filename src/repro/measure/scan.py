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

Performance layer (see docs/architecture.md "Performance architecture"):
the closed form is the batched kernel of :mod:`repro.measure.kernel` —
one whole-array pass, or one pass per macro-row slab when a checkpoint
or fault plan needs per-macro landing — the engine tier reuses one
cached netlist per macro, and ``scan(ScanConfig(jobs=N))`` fans macros
out across a process pool.

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
from typing import TYPE_CHECKING

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
from repro.measure.config import ScanConfig, coerce_scan_config
from repro.measure.kernel import (
    KernelConstants,
    _series,  # noqa: F401 - canonical home moved to kernel; re-exported here
    closed_form_vgs_plane,
)
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.stats import MacroTiming, ScanStats
from repro.measure.structure import MeasurementDesign, MeasurementStructure
from repro.obs.metrics import active_metrics, use_metrics
from repro.obs.trace import NULL_TRACER
from repro.resilience.checkpoint import resume_fingerprint
from repro.resilience.faults import active_fault_plan, fault_point, inject
from repro.resilience.quality import CellQuality, quality_counts, quality_plane

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.diagnostics import LintReport
    from repro.sanitize.footprint import FootprintLog


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
    sanitize_report:
        The write-footprint sanitizer's CCY101/CCY102
        :class:`~repro.lint.diagnostics.LintReport` when the scan ran
        with ``ScanConfig(sanitize=True)``; ``None`` otherwise.  Like
        ``stats`` it describes the run, not the data, and is excluded
        from equality.
    """

    codes: np.ndarray
    vgs: np.ndarray
    num_steps: int
    tiers: np.ndarray
    stats: ScanStats | None = field(default=None, compare=False)
    quality: np.ndarray | None = field(default=None, compare=False)
    sanitize_report: "LintReport | None" = field(default=None, compare=False)

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
        Allow :meth:`scan` to dispatch eligible scans to the whole-array
        batched kernel (:mod:`repro.measure.kernel`).  ``False`` pins
        the per-macro drivers — the benchmark's serial baseline.
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
        # it only under force_engine, for backends without a kernel, or
        # when disabled here outright (benchmarks pin the per-macro
        # baseline through this seam).
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

    def scan_macro(
        self,
        macro: MacroCell,
        config: ScanConfig | bool | None = None,
        *,
        force_engine: bool | None = None,
    ) -> tuple[np.ndarray, np.ndarray, str]:
        """Scan one macro; returns (vgs, codes, tier_marker).

        ``config`` is a :class:`ScanConfig`; the old positional/keyword
        ``force_engine`` bool still works behind a deprecation shim.
        """
        config = coerce_scan_config(
            config, "ArrayScanner.scan_macro", force_engine=force_engine
        )
        with _ambient_metrics(config), _ambient_faults(config):
            vgs, codes, tier, _quality = self._scan_macro(macro, config)
            active_metrics().histogram(
                "scan.codes", "measurement codes emitted"
            ).observe_many(codes.ravel())
            return vgs, codes, tier

    def _scan_macro(
        self, macro: MacroCell, config: ScanConfig
    ) -> tuple[np.ndarray, np.ndarray, str, np.ndarray]:
        """Scan one macro with ambient metrics already installed.

        The serial scan loop calls this directly — coercion and the
        contextvar install happen once per scan, not once per macro.
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

    def scan(
        self,
        config: ScanConfig | bool | None = None,
        *,
        force_engine: bool | None = None,
        jobs: int | None = None,
        preflight: bool | None = None,
    ) -> ScanResult:
        """Scan the whole array; returns the assembled :class:`ScanResult`.

        Parameters
        ----------
        config:
            A :class:`~repro.measure.config.ScanConfig` (jobs, preflight,
            force_engine, tracer, metrics).  ``None`` uses the defaults:
            serial, no preflight, closed-form routing, observability off.
        force_engine, jobs, preflight:
            Deprecated keyword forms of the corresponding
            :class:`ScanConfig` fields; using any of them emits
            :class:`DeprecationWarning`.

        The returned result carries a :class:`ScanStats` telemetry
        record in ``result.stats``; when ``config.metrics`` is a real
        registry the stats are folded into it as well, and
        ``config.tracer`` receives the scan → macro → cell → phase span
        tree (parallel workers buffer their spans per task and ship
        them back for a parent-side merge, stamped with
        ``worker_id``/``pid``).  ``config.progress`` is advanced
        once per completed macro (live completion/throughput/ETA), and
        when ``config.ledger`` is set a run manifest (provenance +
        per-run scalars) is appended to it on completion.

        Resilience (see docs/architecture.md "Resilience"): with
        ``config.checkpoint`` set, completed macros persist through the
        run ledger (once per macro-row slab on the serial kernel path)
        and an interrupted scan resumes bit-exact; with
        ``jobs > 1`` the process pool is supervised (``config.retry``,
        ``config.timeout``) and macros whose workers keep dying are
        re-run in-process as the final rung, flagged DEGRADED.
        """
        config = coerce_scan_config(
            config,
            "ArrayScanner.scan",
            force_engine=force_engine,
            jobs=jobs,
            preflight=preflight,
        )
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
        progress = config.progress
        checkpointer = config.checkpoint
        with _ambient_metrics(config), _ambient_faults(config):
            start = perf_counter()
            cpu_start = process_time()
            rows, cols = self.array.rows, self.array.cols
            num_macros = self.array.num_macros
            footprint: "FootprintLog | None" = None
            if config.sanitize:
                from repro.sanitize.footprint import FootprintLog

                footprint = FootprintLog((rows, cols))
            # Dispatch planner: the kernel evaluates every closed-form
            # macro unless force_engine (or a backend without a kernel)
            # pins the per-macro drivers; a checkpoint or fault plan
            # splits it into one pass per macro-row slab.  Tracing is
            # *not* a disqualifier: kernel passes get "kernel" spans and
            # parallel workers ship theirs back in the acks.
            kernel_ok = (
                self._use_kernel
                and backend.uses_kernel
                and not config.force_engine
            )
            whole_array = (
                kernel_ok
                and checkpointer is None
                and active_fault_plan() is None
            )
            if whole_array:
                # The kernel branches produce whole vgs/codes planes;
                # pre-zeroed ones would be pure allocation waste on the
                # hot path.
                codes = vgs = None  # type: ignore[assignment]
            else:
                codes = np.zeros((rows, cols), dtype=int)
                vgs = np.zeros((rows, cols))
            tiers = np.full((rows, cols), "c", dtype="<U1")
            quality = quality_plane((rows, cols))
            timings: list[MacroTiming] = []

            done: set[int] = set()
            if checkpointer is not None:
                state = checkpointer.start(
                    "scan",
                    resume_fingerprint(config),
                    {"codes": codes, "vgs": vgs, "tiers": tiers,
                     "quality": quality},
                    total=num_macros,
                )
                # A resumed scan continues into the checkpointed planes;
                # a fresh one adopts the (identical) arrays it just
                # handed over so mark_done persists live state.
                codes = state.arrays["codes"]
                vgs = state.arrays["vgs"]
                tiers = state.arrays["tiers"]
                quality = state.arrays["quality"]
                done = set(state.completed)
            if done:
                remaining = [i for i in range(num_macros) if i not in done]
            else:
                remaining = list(range(num_macros))

            effective_jobs = min(config.jobs, num_macros)
            telemetry: dict = {
                "retries": 0, "timeouts": 0, "respawns": 0, "workers": [],
            }
            kernel_cells = 0
            kernel_seconds = 0.0

            def _finish_macro(
                index: int, tier: str, cells: int, seconds: float,
                persist: bool = True,
            ) -> None:
                timings.append(MacroTiming(index, tier, cells, seconds))
                progress.advance(cells)
                fault_point("scan.macro_done", macro=index)
                if persist and checkpointer is not None:
                    checkpointer.mark_done(index)

            def _record_macro(index: int, source: str, task: str | None = None) -> None:
                # Parent-side footprint record for a macro written via
                # _place (serial, rescue, engine-overwrite); worker-side
                # writes ship their rectangles back in acknowledgements.
                if footprint is None:
                    return
                macro = self.array.macro(index)
                footprint.record(
                    task if task is not None else f"macro[{index}]",
                    macro.row_start, macro.row_stop,
                    macro.col_start, macro.col_stop,
                    source=source,
                )

            def _rescue(index: int) -> None:
                # Final rung: the pool gave up on this macro (worker
                # kept dying or timing out), so run it in-process —
                # slower, but the planes stay whole.  Cells are flagged
                # DEGRADED: the value did not come through the
                # configured path.
                macro = self.array.macro(index)
                macro_start = perf_counter()
                m_vgs, m_codes, tier, m_quality = self._scan_macro(
                    macro, config
                )
                seconds = perf_counter() - macro_start
                m_quality = np.maximum(
                    m_quality, np.uint8(CellQuality.DEGRADED)
                )
                active_metrics().counter(
                    "scan.macro_rescues",
                    "macros re-run in-process after the pool gave up",
                ).inc()
                self._place(
                    macro, m_vgs, m_codes, tier, m_quality,
                    vgs, codes, tiers, quality,
                )
                # A rescue only runs when no worker acknowledgement ever
                # landed, so recording under the same task key is the
                # legal retry shape, not an overlap.
                _record_macro(index, "rescue")
                _finish_macro(index, tier, macro.num_cells, seconds)

            with tracer.span(
                "scan",
                rows=rows,
                cols=cols,
                jobs=effective_jobs,
                force_engine=config.force_engine,
            ) as scan_span:
                progress.start(rows * cols, label="scan", units="cells")
                for index in sorted(done):
                    # Checkpointed macros are already in the planes.
                    progress.advance(self.array.macro(index).num_cells)
                    _record_macro(
                        index, "checkpoint", task=f"checkpoint[{index}]"
                    )
                pool_jobs = min(effective_jobs, len(remaining))
                cells_per_macro = self.array.macro_rows * self.array.macro_cols
                if kernel_ok:
                    # Engine routing is decided up front (O(1) for
                    # bridge-free arrays) so the kernel passes and the
                    # engine overwrites share one verdict per macro.
                    if self.array.defect_count(DefectKind.BRIDGE) == 0:
                        engine_indices: list[int] = []
                    else:
                        engine_indices = [
                            i for i in remaining
                            if self._macro_needs_engine(self.array.macro(i))
                        ]
                if whole_array and pool_jobs > 1:
                    from repro.measure.parallel import (
                        scan_macros_kernel_parallel,
                    )

                    vgs, codes, quality, macro_seconds, failures, telemetry = (
                        scan_macros_kernel_parallel(
                            self.array, self.structure, pool_jobs,
                            engine_indices=engine_indices,
                            retry=config.retry,
                            timeout=config.timeout,
                            footprint=footprint,
                            tracer=tracer,
                            metrics=active_metrics(),
                        )
                    )
                    for index, tier, seconds in macro_seconds:
                        if tier == "e":
                            macro = self.array.macro(index)
                            tiers[macro.row_start:macro.row_stop,
                                  macro.col_start:macro.col_stop] = "e"
                        else:
                            kernel_cells += cells_per_macro
                            kernel_seconds += seconds
                        timings.append(
                            MacroTiming(index, tier, cells_per_macro, seconds)
                        )
                    progress.advance(cells_per_macro * len(macro_seconds))
                    for index, _error in failures:
                        _rescue(index)
                elif whole_array:
                    vgs, codes, kernel_seconds = self.kernel_planes(
                        self.array.capacitance_view(),
                        self.array.defect_kind_view(),
                        tracer,
                    )
                    engine_set = frozenset(engine_indices)
                    if footprint is not None:
                        # The kernel wrote the whole plane, but engine
                        # macros are about to overwrite their tiles;
                        # claim only the tiles the kernel's values
                        # survive in, so the engine overwrites are not
                        # misreported as overlaps.
                        for index in range(num_macros):
                            if index not in engine_set:
                                _record_macro(index, "parent", task="kernel")
                    n_kernel = num_macros - len(engine_set)
                    kernel_cells = n_kernel * cells_per_macro
                    share = kernel_seconds / n_kernel if n_kernel else 0.0
                    timings.extend(
                        MacroTiming(index, "c", cells_per_macro, share)
                        for index in range(num_macros)
                        if index not in engine_set
                    )
                    progress.advance(kernel_cells)
                    for index in engine_indices:
                        macro = self.array.macro(index)
                        macro_start = perf_counter()
                        m_vgs, m_codes, tier, m_quality = self._scan_macro(
                            macro, config
                        )
                        seconds = perf_counter() - macro_start
                        self._place(
                            macro, m_vgs, m_codes, tier, m_quality,
                            vgs, codes, tiers, quality,
                        )
                        _record_macro(index, "parent")
                        _finish_macro(index, tier, macro.num_cells, seconds)
                elif pool_jobs > 1:
                    from repro.measure.parallel import scan_macros_parallel

                    def _land(payload) -> None:
                        index, m_vgs, m_codes, tier, m_quality, seconds = payload
                        macro = self.array.macro(index)
                        # The worker's own macro → cell → phase spans
                        # ship back in the acknowledgement and are
                        # merged (with worker_id/pid attributes) before
                        # this hook runs, so no parent-side stand-in
                        # span is synthesized here.
                        self._place(
                            macro, m_vgs, m_codes, tier, m_quality,
                            vgs, codes, tiers, quality,
                        )
                        _finish_macro(index, tier, macro.num_cells, seconds)

                    _, failures, telemetry = scan_macros_parallel(
                        self.array, self.structure, config.force_engine,
                        pool_jobs,
                        indices=remaining,
                        retry=config.retry,
                        timeout=config.timeout,
                        fault_plan=config.faults,
                        on_result=_land,
                        footprint=footprint,
                        tracer=tracer,
                        metrics=active_metrics(),
                    )
                    for index, _error in failures:
                        _rescue(index)
                else:
                    # Serial slabs: one kernel pass per macro row, tiles
                    # landing in index order (fault sites, progress and
                    # timings stay per macro), one persist per slab.
                    # Without the kernel every macro is its own slab.
                    per_slab = self.array.macros_per_row if kernel_ok else 1
                    slabs: dict[int, list[int]] = {}
                    for index in remaining:
                        slabs.setdefault(index // per_slab, []).append(index)
                    engine_set = frozenset(engine_indices) if kernel_ok else None
                    mr = self.array.macro_rows
                    good = quality_plane((mr, self.array.macro_cols))
                    failed = np.full_like(good, CellQuality.FAILED)
                    for slab_row, slab in slabs.items():
                        if kernel_ok:
                            rsl = slice(slab_row * mr, (slab_row + 1) * mr)
                            s_vgs, s_codes, s_seconds = self.kernel_planes(
                                self.array.capacitance_view()[rsl],
                                self.array.defect_kind_view()[rsl],
                                tracer,
                            )
                            kernel_seconds += s_seconds
                            share = s_seconds / max(
                                1, sum(i not in engine_set for i in slab)
                            )
                        for index in slab:
                            macro = self.array.macro(index)
                            if engine_set is None or index in engine_set:
                                macro_start = perf_counter()
                                m_vgs, m_codes, tier, m_quality = (
                                    self._scan_macro(macro, config)
                                )
                                seconds = perf_counter() - macro_start
                            else:
                                csl = slice(macro.col_start, macro.col_stop)
                                tier, seconds = "c", share
                                try:
                                    fault_point("scan.closed_form", macro=index)
                                except ReproError:
                                    # Same placeholder as _scan_macro's.
                                    m_vgs = np.zeros(good.shape)
                                    m_codes = self.codes_for_vgs(m_vgs)
                                    m_quality = failed
                                else:
                                    m_vgs, m_codes = s_vgs[:, csl], s_codes[:, csl]
                                    m_quality = good
                                    kernel_cells += macro.num_cells
                            self._place(
                                macro, m_vgs, m_codes, tier, m_quality,
                                vgs, codes, tiers, quality,
                            )
                            _record_macro(index, "parent")
                            _finish_macro(
                                index, tier, macro.num_cells, seconds,
                                persist=False,
                            )
                        if checkpointer is not None:
                            checkpointer.mark_done(*slab)
                progress.finish()

                sanitize_report: "LintReport | None" = None
                if footprint is not None:
                    from repro.sanitize.footprint import check_footprints

                    sanitize_report = check_footprints(footprint)
                    overlap = footprint.overlap_cells()
                    gap = footprint.gap_cells()
                    scan_span.attributes["footprint_intervals"] = len(footprint)
                    scan_span.attributes["footprint_overlap_cells"] = overlap
                    scan_span.attributes["footprint_gap_cells"] = gap
                    if overlap:
                        active_metrics().counter(
                            "scan.sanitize_overlap_cells",
                            "plane cells written by more than one task",
                        ).inc(overlap)
                    if gap:
                        active_metrics().counter(
                            "scan.sanitize_gap_cells",
                            "plane cells no task claims to have written",
                        ).inc(gap)

                if whole_array:
                    # Engine routing was decided up front; rescued
                    # macros re-run the same verdict, so the tier plane
                    # cannot disagree with the planner.
                    engine_cells = cells_per_macro * len(engine_indices)
                else:
                    engine_cells = int((tiers == "e").sum())
                scan_span.attributes["engine_cells"] = engine_cells
                # One whole-plane observation instead of one per macro —
                # same distribution, none of the per-tile conversion cost.
                active_metrics().histogram(
                    "scan.codes", "measurement codes emitted"
                ).observe_many(codes.ravel())

            # MacroTiming is a NamedTuple with the unique index first,
            # so plain tuple order is index order (no per-item key call).
            timings.sort()
            stats = ScanStats(
                total_cells=rows * cols,
                wall_seconds=perf_counter() - start,
                jobs=effective_jobs,
                closed_form_cells=rows * cols - engine_cells,
                engine_cells=engine_cells,
                macro_timings=timings,
                kernel_cells=kernel_cells,
                kernel_seconds=kernel_seconds,
                degraded_cells=int((quality == CellQuality.DEGRADED).sum()),
                failed_cells=int((quality == CellQuality.FAILED).sum()),
                macro_retries=telemetry["retries"],
                macro_timeouts=telemetry["timeouts"],
                worker_respawns=telemetry["respawns"],
                pool_health=telemetry.get("workers", []),
            )
            stats.to_metrics(active_metrics())
        result = ScanResult(
            codes=codes,
            vgs=vgs,
            num_steps=self.structure.design.num_steps,
            tiers=tiers,
            stats=stats,
            quality=quality,
            sanitize_report=sanitize_report,
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

    @staticmethod
    def _place(
        macro: MacroCell,
        m_vgs: np.ndarray,
        m_codes: np.ndarray,
        tier: str,
        m_quality: np.ndarray,
        vgs: np.ndarray,
        codes: np.ndarray,
        tiers: np.ndarray,
        quality: np.ndarray,
    ) -> None:
        rsl = slice(macro.row_start, macro.row_stop)
        csl = slice(macro.col_start, macro.col_stop)
        vgs[rsl, csl] = m_vgs
        codes[rsl, csl] = m_codes
        tiers[rsl, csl] = tier
        quality[rsl, csl] = m_quality

    def measure_cell(
        self,
        row: int,
        col: int,
        config: ScanConfig | str | None = None,
        *,
        tier: str | None = None,
    ) -> "object":
        """Measure one cell by global address through a named tier.

        ``config.tier`` selects ``"charge"`` or ``"transient"``; the old
        ``tier=`` keyword (and positional string) still work behind a
        deprecation shim.  Returns the
        :class:`~repro.measure.result.MeasurementResult`.
        """
        config = coerce_scan_config(config, "ArrayScanner.measure_cell", tier=tier)
        macro = self.array.macro(self.array.macro_of(row, col))
        lrow = row - macro.row_start
        lcol = col - macro.col_start
        sequencer = self._sequencer(macro)
        with _ambient_metrics(config):
            if config.tier == "charge":
                return sequencer.measure_charge(lrow, lcol, tracer=config.tracer)
            return sequencer.measure_transient(lrow, lcol, tracer=config.tracer)
