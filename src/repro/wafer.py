"""Wafer-level process monitoring on top of per-die analog bitmaps.

A wafer is a disk of dies; capacitor-module deposition is rarely uniform
across it (radial thickness profiles, zone-dependent etch).  With an
embedded measurement structure on every die, the analog bitmaps compose
into a wafer map — the standard artefact a process engineer reads.

:class:`WaferModel` synthesizes a wafer (per-die mean capacitance from a
radial + random profile), measures each die through the real scan path,
and :class:`WaferReport` aggregates: per-die means, zonal statistics
(centre/mid/edge rings), radial regression, and an ASCII wafer map.

Dies are tiny and many, so per-die fixed costs (scanner, scan result,
bitmap) would dwarf their kernel work: the die loop measures chunks of
stacked dies in one pass instead (see :meth:`WaferModel._scan_dies`).
"""

from __future__ import annotations

import enum
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure
from repro.edram.array import EDRAMArray
from repro.edram.defects import DefectKind
from repro.errors import DiagnosisError, MeasurementError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner, ScanResult
from repro.measure.structure import MeasurementStructure
from repro.obs.progress import NULL_PROGRESS
from repro.obs.ledger import config_fingerprint
from repro.resilience.faults import active_fault_plan, fault_point, inject
from repro.technologies import get as get_technology
from repro.units import fF, to_fF

#: The eDRAM nominal the historical absolute defaults were sized for;
#: other technologies scale the wafer profile by their card nominal
#: relative to this.
_REFERENCE_NOMINAL = 30.0 * fF

#: Cells per stacked kernel pass of the die loop; a chunk holds this
#: many cells' worth of dies (at least one die).
_CHUNK_CELLS = 1 << 13


@dataclass(frozen=True)
class DieSite:
    """One die's position and measured statistics."""

    x: int
    y: int
    radius_fraction: float  # 0 centre .. 1 wafer edge
    mean_capacitance: float
    sigma_capacitance: float


class DieQuality(enum.IntEnum):
    """Quality of one die's contribution to a merged lot.

    The die-level analogue of
    :class:`~repro.resilience.quality.CellQuality`, with an explicit
    ``UNMEASURED`` zero so a freshly allocated plane reads as "nobody
    has claimed this die yet" — the state a shard's die range is in
    before its worker reaches it, and the state the merge turns into
    ``FAILED`` when the shard that owned it exhausted its retries.
    """

    UNMEASURED = 0
    GOOD = 1
    FAILED = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass
class DieRangeScan:
    """Planes measured over one contiguous die range of a wafer.

    Every plane is **range-sized**: entry ``k`` is the wafer's die
    ``lo + k`` of ``die_range = (lo, hi)``, so ``len(die_means) == hi -
    lo``.  A lot is these slices scattered back to their ranges, which
    is bit-exact with one walk of the whole wafer by construction.
    """

    die_range: tuple[int, int]
    total_dies: int  #: printed dies on the whole wafer
    die_means: np.ndarray  #: (N,) float
    die_sigmas: np.ndarray  #: (N,) float
    die_vgs: np.ndarray  #: (N, die_rows, die_cols) float
    die_codes: np.ndarray  #: (N, die_rows, die_cols) int
    die_cell_quality: np.ndarray  #: (N, die_rows, die_cols) uint8 CellQuality
    die_quality: np.ndarray  #: (N,) uint8 DieQuality
    run_id: str | None = None


class WaferModel:
    """Synthesize and measure one wafer.

    Parameters
    ----------
    diameter_dies:
        Wafer width in dies (dies outside the inscribed circle are not
        printed).
    die_rows, die_cols:
        Array size fabricated on each die.
    radial_drop:
        Capacitance loss from centre to edge, farads (a classic
        deposition profile).  ``None`` scales the eDRAM default
        (2.5 fF) by the technology nominal.
    die_sigma:
        Die-to-die random variation of the mean, farads.  ``None``
        scales the eDRAM default (0.4 fF) by the technology nominal.
    cell_sigma:
        Within-die cell mismatch, farads.  ``None`` scales the eDRAM
        default (0.8 fF) by the technology nominal.
    technology:
        Cell-technology backend name (:mod:`repro.technologies`); the
        backend fabricates every die with its own variation model and
        supplies the measurement range the per-wafer structure is
        designed for.
    seed:
        Reproducibility.
    """

    def __init__(
        self,
        diameter_dies: int = 9,
        die_rows: int = 16,
        die_cols: int = 8,
        macro_rows: int = 8,
        macro_cols: int = 2,
        nominal: float | None = None,
        radial_drop: float | None = None,
        die_sigma: float | None = None,
        cell_sigma: float | None = None,
        seed: int = 0,
        technology: str = "edram",
    ) -> None:
        if diameter_dies < 3:
            raise DiagnosisError("wafer needs at least 3 dies across")
        if die_rows % macro_rows or die_cols % macro_cols:
            raise DiagnosisError("macro tiling must divide the die array")
        self._backend = get_technology(technology)
        self.technology = technology
        self.tech = self._backend.base_card()
        # The historical absolute defaults were sized for the 30 fF
        # eDRAM nominal; other technologies keep the same *relative*
        # wafer profile unless overridden.
        scale = self.tech.cell_capacitance / _REFERENCE_NOMINAL
        self.diameter = diameter_dies
        self.die_rows = die_rows
        self.die_cols = die_cols
        self.macro_rows = macro_rows
        self.macro_cols = macro_cols
        self.nominal = nominal if nominal is not None else self.tech.cell_capacitance
        self.radial_drop = radial_drop if radial_drop is not None else 2.5 * fF * scale
        self.die_sigma = die_sigma if die_sigma is not None else 0.4 * fF * scale
        self.cell_sigma = cell_sigma if cell_sigma is not None else 0.8 * fF * scale
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._structure: MeasurementStructure | None = None
        self._abacus: Abacus | None = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def sites(self) -> list[tuple[int, int, float]]:
        """(x, y, radius_fraction) of every printed die."""
        centre = (self.diameter - 1) / 2.0
        out = []
        for y in range(self.diameter):
            for x in range(self.diameter):
                r = math.hypot(x - centre, y - centre) / (self.diameter / 2.0)
                if r <= 1.0:
                    out.append((x, y, r))
        return out

    # ------------------------------------------------------------------
    # Fabrication + measurement
    # ------------------------------------------------------------------

    def _calibration(self) -> tuple[MeasurementStructure, Abacus]:
        if self._structure is None:
            c_lo, c_hi, num_steps = self._backend.measurement_range()
            self._structure = design_structure(
                self.tech, self.macro_rows, self.macro_cols,
                c_lo=c_lo, c_hi=c_hi, num_steps=num_steps,
                bitline_rows=self.die_rows,
            )
            self._abacus = Abacus.analytic(
                self._structure, self.macro_rows, self.macro_cols,
                bitline_rows=self.die_rows,
            )
        if self._abacus is None:
            raise DiagnosisError("wafer calibration failed to build an abacus")
        return self._structure, self._abacus

    def fabricate_die(self, radius_fraction: float) -> EDRAMArray:
        """Build one die's array with the wafer's process profile.

        The wafer model owns the RNG: the die-mean draw and the mismatch
        seed come from *its* stream (in this exact order) so checkpoint
        fast-forward stays bit-exact.  The technology backend turns the
        draw into a die array with its own variation model.
        """
        mean = (
            self.nominal
            - self.radial_drop * radius_fraction**2
            + self._rng.normal(0.0, self.die_sigma)
        )
        mismatch_seed = int(self._rng.integers(1 << 31))
        return self._backend.fabricate_die(
            self.die_rows, self.die_cols,
            macro_rows=self.macro_rows, macro_cols=self.macro_cols,
            mean=mean, cell_sigma=self.cell_sigma,
            mismatch_seed=mismatch_seed, tech=self.tech,
        )

    def _burn_die_draws(self) -> None:
        """Consume exactly the RNG draws one :meth:`fabricate_die` would.

        The fast-forward primitive behind both checkpoint resume and
        die-range sharding: a die someone else (an earlier run, another
        shard) is responsible for still advances *this* model's RNG
        stream by the same two draws, so every later die prints
        identically to an unsharded, uninterrupted run.
        """
        self._rng.normal(0.0, self.die_sigma)
        self._rng.integers(1 << 31)

    def measure_wafer(self, config: ScanConfig | None = None) -> "WaferReport":
        """Fabricate and scan every die; return the wafer report.

        The whole wafer as one die range: :meth:`measure_dies` over
        ``[0, total)``, whose planes the report summarizes.  The
        designed structure and its memoized code-boundary table are
        shared by every die, so calibration is solved once per wafer.

        ``config.progress`` reports at **die** granularity (the die scans
        themselves run silent), and ``config.ledger`` receives one wafer
        manifest — not one per die — carrying the die-level scalars the
        drift engine charts (:meth:`WaferReport.scalars`).

        With ``config.checkpoint`` set, the die range's planes persist
        as it runs (kind ``"shard"``) and an interrupted wafer run
        resumes bit-exact.  A recorded wafer's checkpoint is finished
        by its record (:meth:`~repro.obs.RunLedger.record`), after the
        manifest line.
        """
        config = self._checked_config(config)
        sites = self.sites()
        start = perf_counter()
        cpu_start = process_time()
        scan = self.measure_dies((0, len(sites)), config)
        report = WaferReport.from_planes(
            sites, scan.die_means, scan.die_sigmas, self.diameter
        )
        if config.ledger is not None:
            report.run_id = config.ledger.record_wafer(
                report,
                config,
                model=self,
                wall_seconds=perf_counter() - start,
                cpu_seconds=process_time() - cpu_start,
                checkpoint=config.checkpoint,
            ).run_id
        elif config.checkpoint is not None:
            config.checkpoint.finish()
        return report

    def measure_dies(
        self,
        die_range: tuple[int, int],
        config: ScanConfig | None = None,
        *,
        on_die: Callable[[int, int], None] | None = None,
    ) -> DieRangeScan:
        """Fabricate and scan one contiguous die range of this wafer.

        The die-range primitive behind :meth:`measure_wafer` (the range
        ``[0, total)``) and the :mod:`repro.fleet` shards: dies outside
        ``[lo, hi)`` — another shard's work — are fast-forwarded by
        burning exactly the RNG draws their fabrication would have
        consumed, so any partition of the wafer into ranges produces
        dies (and therefore planes) bit-identical to one walk of the
        whole wafer.

        ``config.checkpoint`` persists the range's planes under kind
        ``"shard"`` (the resume fingerprint folds the die range in, so
        a checkpoint can never be resumed under a different partition).
        This method never finishes the checkpoint: the caller records
        the result, whose :meth:`~repro.obs.RunLedger.record` finishes
        it, so a crash in between costs a re-record, never the range's
        work.  ``on_die(index, done)`` fires in-process after
        each die completes — the fleet worker's heartbeat hook.
        """
        config = self._checked_config(config)
        total = len(self.sites())
        lo, hi = int(die_range[0]), int(die_range[1])
        if not 0 <= lo < hi <= total:
            raise DiagnosisError(
                f"die range [{lo}, {hi}) does not fit a wafer with "
                f"{total} printed dies"
            )
        checkpointer = config.checkpoint
        planes = self.die_planes(hi - lo)
        done: set[int] = set()
        if checkpointer is not None:
            fingerprint = config_fingerprint(config)
            fingerprint["die_range"] = [lo, hi]
            state = checkpointer.start(
                "shard", fingerprint, planes, total=hi - lo
            )
            planes = state.arrays
            done = set(state.completed)
        self._scan_dies(lo, hi, config, planes, done, on_die=on_die)
        run_id = checkpointer.run_id if checkpointer is not None else None
        return DieRangeScan(
            die_range=(lo, hi), total_dies=total, run_id=run_id, **planes
        )

    def _checked_config(self, config: ScanConfig | None) -> ScanConfig:
        """``config`` or the wafer's default, checked against its technology.

        A default config inherits the wafer's technology; an explicit
        one must agree — the per-die scans validate array-vs-config
        technology, so a mismatch would otherwise fail on the first
        die with a less helpful message.
        """
        config = (
            config if config is not None
            else ScanConfig(technology=self.technology)
        )
        if config.technology != self.technology:
            raise MeasurementError(
                f"config.technology is {config.technology!r} but this "
                f"wafer fabricates {self.technology!r} dies"
            )
        return config

    def die_planes(self, count: int) -> dict[str, np.ndarray]:
        """Neutral :class:`DieRangeScan` planes for ``count`` dies (NaN
        means and sigmas, zero codes, GOOD quality)."""
        shape = (count, self.die_rows, self.die_cols)
        return {
            "die_means": np.full(count, np.nan),
            "die_sigmas": np.full(count, np.nan),
            "die_vgs": np.zeros(shape),
            "die_codes": np.zeros(shape, dtype=int),
            "die_cell_quality": np.zeros(shape, dtype=np.uint8),
            "die_quality": np.zeros(count, dtype=np.uint8),
        }

    def _scan_dies(
        self,
        lo: int,
        hi: int,
        config: ScanConfig,
        planes: dict[str, np.ndarray],
        done: set[int],
        *,
        on_die: Callable[[int, int], None] | None = None,
    ) -> None:
        """Measure dies ``[lo, hi)`` into ``planes`` (indexed from ``lo``).

        The die loop behind :meth:`measure_dies`.  Fabrication walks
        every printed die in order; a die outside the range or already
        in ``done`` only burns its RNG draws, so any range, resumed or
        not, prints the same dies as one uninterrupted walk.

        Dies are stacked ``_CHUNK_CELLS`` at a time into one plane and
        measured by one kernel pass, one code conversion and one bitmap.
        A die falls back to its own :meth:`ArrayScanner.scan` (with
        ``config``) exactly when that scan would not take the kernel:
        ``force_engine`` or ``preflight`` is set, a fault plan targets a
        site outside the wafer loop, or the die has BRIDGE defects.  The ``wafer.die_done`` fault site, checkpoint
        mark, progress and ``on_die`` fire per die, in die order, on
        both paths.  A chunk reports one ``kernel`` span to
        ``config.tracer``; only fallback scans fold :class:`ScanStats`
        into ``config.metrics``.
        """
        progress, checkpointer = config.progress, config.checkpoint
        # The wafer loop owns progress, recording and checkpointing;
        # per-die scans get a silent copy so they neither repaint the
        # line, append runs, nor fight over the checkpoint file.
        die_config = config.with_options(
            progress=NULL_PROGRESS, ledger=None, checkpoint=None
        )
        structure, abacus = self._calibration()
        chunk_dies = max(1, _CHUNK_CELLS // (self.die_rows * self.die_cols))
        chunk: list[tuple[int, int, int, EDRAMArray]] = []

        def land(index, x, y, mean, sigma, vgs, codes, quality) -> None:
            rel = index - lo
            planes["die_means"][rel] = mean
            planes["die_sigmas"][rel] = sigma
            planes["die_vgs"][rel] = vgs
            planes["die_codes"][rel] = codes
            planes["die_cell_quality"][rel] = quality
            planes["die_quality"][rel] = int(DieQuality.GOOD)
            fault_point("wafer.die_done", die=index, x=x, y=y)
            if checkpointer is not None:
                checkpointer.mark_done(index, rows=rel)
            progress.advance()
            if on_die is not None:
                on_die(index, len(done) + 1)
            done.add(index)

        def flush() -> None:
            if not chunk:
                return
            vgs, codes, _seconds = ArrayScanner(chunk[0][3], structure).kernel_planes(
                np.concatenate([die.capacitance_view() for *_, die in chunk]),
                np.concatenate([die.defect_kind_view() for *_, die in chunk]),
                config.tracer,
            )
            bitmap = AnalogBitmap(
                ScanResult(
                    codes=codes, vgs=vgs,
                    num_steps=structure.design.num_steps,
                    tiers=np.full(codes.shape, "c", dtype="<U1"),
                ),
                abacus,
            )
            in_range, estimates = bitmap.in_range, bitmap.estimates
            for k, (index, x, y, _die) in enumerate(chunk):
                rows = slice(k * self.die_rows, (k + 1) * self.die_rows)
                # The die's own 2-D slice, masked row-major: the same
                # values in the same order as its own bitmap's mean/std.
                values = estimates[rows][in_range[rows]]
                if values.size == 0:
                    raise DiagnosisError("no in-range cells to average")
                land(
                    index, x, y, float(values.mean()), float(values.std()),
                    vgs[rows], codes[rows], bitmap.scan.quality[rows],
                )
            chunk.clear()

        ambient = (
            inject(config.faults) if config.faults is not None else nullcontext()
        )
        with ambient:
            plan = active_fault_plan()
            # Persistence sites fire outside die scans (those record and
            # checkpoint nothing), so they keep the chunked path too.
            chunked = (
                not config.force_engine
                and not config.preflight
                and (plan is None or all(
                    f.site.startswith(("wafer.", "durable."))
                    for f in plan.faults
                ))
            )
            sites = self.sites()
            label = "wafer" if hi - lo == len(sites) else f"shard[{lo},{hi})"
            progress.start(hi - lo, label=label, units="dies")
            for index, (x, y, r) in enumerate(sites):
                if not lo <= index < hi or index in done:
                    self._burn_die_draws()
                    if lo <= index < hi:
                        progress.advance()
                    continue
                die = self.fabricate_die(r)
                if chunked and die.defect_count(DefectKind.BRIDGE) == 0:
                    chunk.append((index, x, y, die))
                    if len(chunk) == chunk_dies:
                        flush()
                    continue
                flush()
                scan = ArrayScanner(die, structure).scan(die_config)
                bitmap = AnalogBitmap(scan, abacus)
                land(
                    index, x, y,
                    bitmap.mean_capacitance(), bitmap.std_capacitance(),
                    scan.vgs, scan.codes, scan.quality,
                )
            flush()
            progress.finish()


@dataclass
class WaferReport:
    """Aggregated wafer measurements."""

    dies: list[DieSite]
    diameter: int
    #: The run id the wafer was recorded under (``None`` unrecorded).
    run_id: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.dies:
            raise DiagnosisError("wafer report needs at least one die")

    @classmethod
    def from_planes(
        cls,
        sites: list[tuple[int, int, float]],
        die_means: np.ndarray,
        die_sigmas: np.ndarray,
        diameter: int,
    ) -> "WaferReport":
        """The report over ``sites`` and their aligned die planes."""
        return cls(
            dies=[
                DieSite(x, y, r, float(mean), float(sigma))
                for (x, y, r), mean, sigma in zip(sites, die_means, die_sigmas)
            ],
            diameter=diameter,
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def wafer_mean(self) -> float:
        """Mean of the die means, farads."""
        return float(np.mean([d.mean_capacitance for d in self.dies]))

    def zonal_means(self, rings: int = 3) -> list[tuple[str, float, int]]:
        """(zone label, mean, die count) for concentric rings."""
        if rings < 1:
            raise DiagnosisError("need at least one ring")
        out = []
        for k in range(rings):
            lo, hi = k / rings, (k + 1) / rings
            members = [
                d.mean_capacitance
                for d in self.dies
                if lo <= d.radius_fraction < hi or (k == rings - 1 and d.radius_fraction == 1.0)
            ]
            label = f"r[{lo:.2f},{hi:.2f})"
            out.append((label, float(np.mean(members)) if members else float("nan"), len(members)))
        return out

    def radial_profile(self) -> tuple[float, float]:
        """Least-squares fit ``mean(r) = a + b·r²``; returns (a, b).

        ``b`` recovers the deposition's centre-to-edge drop (farads).
        """
        r2 = np.array([d.radius_fraction**2 for d in self.dies])
        means = np.array([d.mean_capacitance for d in self.dies])
        design = np.column_stack([np.ones_like(r2), r2])
        (a, b), *_ = np.linalg.lstsq(design, means, rcond=None)
        return float(a), float(b)

    def scalars(self) -> dict[str, float]:
        """The wafer's drift scalars, in fF.

        The one definition behind the wafer, shard and lot manifests:
        capacitance statistics over the die means, the
        :meth:`radial_profile` fit and the :meth:`zonal_means` of three
        rings (``zone_centre``/``mid``/``edge``).  A ring with no die
        contributes no key — which the drift engine skips — rather than
        a NaN it would chart.
        """
        a, b = self.radial_profile()
        scalars = {
            "cap_mean_fF": float(to_fF(self.wafer_mean)),
            "cap_sigma_fF": float(
                to_fF(np.std([d.mean_capacitance for d in self.dies]))
            ),
            "die_sigma_mean_fF": float(
                to_fF(np.mean([d.sigma_capacitance for d in self.dies]))
            ),
            "radial_centre_fF": float(to_fF(a)),
            "radial_drop_fF": float(to_fF(-b)),
        }
        for zone, (_label, mean, count) in zip(
            ("centre", "mid", "edge"), self.zonal_means(3)
        ):
            if count:
                scalars[f"zone_{zone}_fF"] = float(to_fF(mean))
                scalars[f"zone_{zone}_dies"] = float(count)
        return scalars

    def out_of_spec_dies(self, spec_lo: float, spec_hi: float) -> list[DieSite]:
        """Dies whose mean falls outside the spec."""
        return [
            d for d in self.dies
            if not spec_lo <= d.mean_capacitance <= spec_hi
        ]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def ascii_map(self) -> str:
        """Wafer map: die mean in fF, one cell per die, '..' off-wafer."""
        grid = [["  .. " for _ in range(self.diameter)] for _ in range(self.diameter)]
        for die in self.dies:
            grid[die.y][die.x] = f"{to_fF(die.mean_capacitance):5.1f}"
        lines = ["".join(row) for row in grid]
        lines.append(f"wafer mean: {to_fF(self.wafer_mean):.2f} fF")
        return "\n".join(lines)
