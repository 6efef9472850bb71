"""Wafer-level process monitoring on top of per-die analog bitmaps.

A wafer is a disk of dies; capacitor-module deposition is rarely uniform
across it (radial thickness profiles, zone-dependent etch).  With an
embedded measurement structure on every die, the analog bitmaps compose
into a wafer map — the standard artefact a process engineer reads.

:class:`WaferModel` synthesizes a wafer (per-die mean capacitance from a
radial + random profile), measures each die through the real scan path,
and :class:`WaferReport` aggregates: per-die means, zonal statistics
(centre/mid/edge rings), radial regression, and an ASCII wafer map.

Dies are tiny and many, so per-die fixed costs (array, scanner, scan
result, bitmap) would dwarf their kernel work.  A chunk of dies is one
die stack instead: each die is fabricated straight into the chunk's
capacitance and defect-kind planes, one kernel pass measures the stack,
every die's mean and sigma come from one reduction over it, and a
checkpoint persists it as one segment (see
:meth:`WaferModel._scan_dies`).
"""

from __future__ import annotations

import enum
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Sequence

import numpy as np

from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure
from repro.edram.array import EDRAMArray
from repro.edram.defects import KIND_CODES, DefectKind
from repro.errors import DiagnosisError, MeasurementError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.measure.structure import MeasurementStructure
from repro.obs.progress import NULL_PROGRESS
from repro.obs.ledger import config_fingerprint
from repro.resilience.faults import active_fault_plan, fault_point, inject
from repro.resilience.quality import CellQuality
from repro.technologies import get as get_technology
from repro.units import fF, to_fF

#: The eDRAM nominal the historical absolute defaults were sized for;
#: other technologies scale the wafer profile by their card nominal
#: relative to this.
_REFERENCE_NOMINAL = 30.0 * fF

#: Cells per stacked kernel pass of the die loop; a chunk holds this
#: many cells' worth of dies (at least one die).
_CHUNK_CELLS = 1 << 13

_BRIDGE = KIND_CODES[DefectKind.BRIDGE]


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
    ``FAILED`` when the shard that owned it exhausted its retries.  A
    measured die whose every cell reads code 0 or full scale has no
    capacitance estimate to average: it lands ``FAILED`` with a NaN
    mean and sigma instead of aborting its range.  Wafer, shard and lot
    statistics read ``GOOD`` dies only.
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


def _printed_sites(diameter: int) -> tuple[tuple[int, int, float], ...]:
    """(x, y, radius_fraction) of every die inside the wafer's circle."""
    centre = (diameter - 1) / 2.0
    sites = []
    for y in range(diameter):
        for x in range(diameter):
            r = math.hypot(x - centre, y - centre) / (diameter / 2.0)
            if r <= 1.0:
                sites.append((x, y, r))
    return tuple(sites)


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
        self._sites = _printed_sites(diameter_dies)
        self._structure: MeasurementStructure | None = None
        self._abacus: Abacus | None = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def sites(self) -> tuple[tuple[int, int, float], ...]:
        """(x, y, radius_fraction) of every printed die, row-major."""
        return self._sites

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

    def _draw_die(self, radius_fraction: float) -> tuple[float, int]:
        """One die's ``(mean, mismatch_seed)`` from the wafer's RNG.

        The wafer model owns the RNG: the die-mean draw and the mismatch
        seed come from *its* stream, in this exact order.  Every printed
        die is drawn, including one that someone else (an earlier run,
        another shard) measures, so checkpoint fast-forward and every
        die-range partition print the same dies as one uninterrupted
        walk.
        """
        mean = (
            self.nominal
            - self.radial_drop * radius_fraction**2
            + self._rng.normal(0.0, self.die_sigma)
        )
        return mean, int(self._rng.integers(1 << 31))

    def _build_die(self, mean: float, mismatch_seed: int) -> EDRAMArray:
        """The backend's die array for one draw of :meth:`_draw_die`."""
        return self._backend.fabricate_die(
            self.die_rows, self.die_cols,
            macro_rows=self.macro_rows, macro_cols=self.macro_cols,
            mean=mean, cell_sigma=self.cell_sigma,
            mismatch_seed=mismatch_seed, tech=self.tech,
        )

    def fabricate_die(self, radius_fraction: float) -> EDRAMArray:
        """Build the next die's array with the wafer's process profile.

        Draws the die (:meth:`_draw_die`); the technology backend turns
        the draw into a die array with its own variation model.  Only
        tests and benchmarks call it, as the per-die reference walk: the
        die loop writes dies straight into its chunk planes
        (:meth:`CellTechnology.fabricate_die_planes`) and builds an
        array only for a die that takes its own scan.
        """
        return self._build_die(*self._draw_die(radius_fraction))

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
        start = perf_counter()
        cpu_start = process_time()
        scan = self.measure_dies((0, len(self._sites)), config)
        report = WaferReport.from_planes(
            self._sites, scan.die_means, scan.die_sigmas, self.diameter,
            scan.die_quality,
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
        total = len(self._sites)
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

        The die loop behind :meth:`measure_dies`.  Every printed die is
        drawn in order (:meth:`_draw_die`); a die outside the range or
        already in ``done`` only burns its draws, so any range, resumed
        or not, prints the same dies as one uninterrupted walk.

        A chunk is a run of consecutive dies (``_CHUNK_CELLS`` cells at
        most) in preallocated ``(chunk, die_rows, die_cols)``
        capacitance and defect-kind planes, which the backend's
        ``fabricate_die_planes`` writes each die into; no die array is
        built.  One kernel pass measures a reshape of the planes, its
        vgs, codes and quality land as one slice each, and every die's
        mean and sigma come from one reduction (:func:`_die_statistics`).

        A die gets its own array (the backend's ``fabricate_die`` from
        the same draw) and its own :meth:`ArrayScanner.scan` exactly
        when that scan would not take the kernel: ``force_engine`` or
        ``preflight`` is set, a fault plan targets a site outside the
        wafer loop and persistence, or its kinds slice holds a BRIDGE.

        The ``wafer.die_done`` fault site, progress and ``on_die`` fire
        per die, in die order, on both paths; then a checkpoint marks a
        landed chunk's dies as one segment, a fallback die as its own.
        Each kernel pass reports one ``kernel`` span to
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
        backend = self._backend
        rows, cols = self.die_rows, self.die_cols
        chunk_dies = max(1, _CHUNK_CELLS // (rows * cols))
        cap = np.empty((chunk_dies, rows, cols))
        kinds = np.empty((chunk_dies, rows, cols), dtype=np.int8)
        # The kernel reads only the die geometry and card off its array.
        template = ArrayScanner(
            backend.array_class()(
                rows, cols, tech=self.tech,
                macro_cols=self.macro_cols, macro_rows=self.macro_rows,
            ),
            structure,
        )
        #: (index, x, y, mean, mismatch_seed) of consecutive dies.
        chunk: list[tuple[int, int, int, float, int]] = []

        def landed(index: int, x: int, y: int) -> None:
            fault_point("wafer.die_done", die=index, x=x, y=y)
            progress.advance()
            done.add(index)
            if on_die is not None:
                on_die(index, len(done))

        def land_stack(start: int, stop: int) -> None:
            """Measure chunk slots ``[start, stop)`` as one die stack."""
            n, first = stop - start, chunk[start][0] - lo
            dies = slice(first, first + n)
            vgs, codes, _seconds = template.kernel_planes(
                cap[start:stop].reshape(n * rows, cols),
                kinds[start:stop].reshape(n * rows, cols),
                config.tracer,
            )
            planes["die_means"][dies], planes["die_sigmas"][dies] = (
                _die_statistics(abacus, codes.reshape(n, rows * cols))
            )
            planes["die_vgs"][dies] = vgs.reshape(n, rows, cols)
            planes["die_codes"][dies] = codes.reshape(n, rows, cols)
            planes["die_cell_quality"][dies] = int(CellQuality.GOOD)
            planes["die_quality"][dies] = _die_quality(planes["die_means"][dies])
            for index, x, y, *_draw in chunk[start:stop]:
                landed(index, x, y)
            if checkpointer is not None:
                checkpointer.mark_done(
                    *(die[0] for die in chunk[start:stop]), rows=dies
                )

        def scan_alone(index: int, x: int, y: int, mean: float, seed: int) -> None:
            """Build the die's array from its draw and scan it on its own."""
            scan = ArrayScanner(self._build_die(mean, seed), structure).scan(
                die_config
            )
            rel = index - lo
            means, sigmas = _die_statistics(abacus, scan.codes.reshape(1, -1))
            planes["die_means"][rel], planes["die_sigmas"][rel] = means[0], sigmas[0]
            planes["die_vgs"][rel] = scan.vgs
            planes["die_codes"][rel] = scan.codes
            planes["die_cell_quality"][rel] = scan.quality
            planes["die_quality"][rel] = _die_quality(means)[0]
            landed(index, x, y)
            if checkpointer is not None:
                checkpointer.mark_done(index, rows=rel)

        def flush() -> None:
            """Land the chunk in die order; bridged dies scan alone."""
            n = len(chunk)
            bridged = (kinds[:n] == _BRIDGE).reshape(n, -1).any(axis=1)
            start = 0
            for stop in (*np.flatnonzero(bridged).tolist(), n):
                if start < stop:
                    land_stack(start, stop)
                if stop < n:
                    scan_alone(*chunk[stop])
                start = stop + 1
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
            sites = self._sites
            label = "wafer" if hi - lo == len(sites) else f"shard[{lo},{hi})"
            progress.start(hi - lo, label=label, units="dies")
            for index, (x, y, r) in enumerate(sites):
                mean, mismatch_seed = self._draw_die(r)
                if not lo <= index < hi or index in done:
                    if lo <= index < hi:
                        progress.advance()
                    continue
                if not chunked:
                    scan_alone(index, x, y, mean, mismatch_seed)
                    continue
                if chunk and chunk[-1][0] != index - 1:
                    flush()  # a resumed range's gap: a chunk lands as one slice
                k = len(chunk)
                backend.fabricate_die_planes(
                    cap[k], kinds[k], mean=mean, cell_sigma=self.cell_sigma,
                    mismatch_seed=mismatch_seed,
                )
                chunk.append((index, x, y, mean, mismatch_seed))
                if len(chunk) == chunk_dies:
                    flush()
            if chunk:
                flush()
            progress.finish()


def _die_statistics(
    abacus: Abacus, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each die's mean and sigma of its in-range estimates, farads.

    ``codes`` holds one die per row, ``(dies, die_rows·die_cols)``,
    row-major within the die.  A die whose cells are all in range is
    reduced along its contiguous row in numpy's own ``mean``/``std``
    order — ``sum/n``, then ``x = e - mean``, ``sqrt(sum(x²)/n)`` — so
    its values are bit-identical to the 1-D ``mean()``/``std()`` of its
    estimates.  Never reduce over axis 0, or over a die's row segments
    first: the summation order, and with it the last bits, would change.
    A die with any out-of-range cell takes the masked 1-D reduction of
    its own estimates; a die with none in range gets NaN for both
    (:func:`_die_quality` lands it FAILED).
    """
    estimates = abacus.mids[codes]
    in_range = (codes != 0) & (codes != abacus.num_steps)
    full = in_range.all(axis=1)
    means, sigmas = np.empty(len(codes)), np.empty(len(codes))
    if full.any():
        rows = estimates[full]
        cells = rows.shape[1]
        mean = rows.sum(axis=1) / cells
        means[full] = mean
        sigmas[full] = np.sqrt(np.square(rows - mean[:, None]).sum(axis=1) / cells)
    for k in np.flatnonzero(~full):
        values = estimates[k][in_range[k]]
        if values.size:
            means[k], sigmas[k] = values.mean(), values.std()
        else:
            means[k] = sigmas[k] = np.nan
    return means, sigmas


def _die_quality(means: np.ndarray) -> np.ndarray:
    """GOOD for a die with a mean, FAILED for one without (NaN)."""
    return np.where(np.isnan(means), int(DieQuality.FAILED), int(DieQuality.GOOD))


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
        sites: Sequence[tuple[int, int, float]],
        die_means: np.ndarray,
        die_sigmas: np.ndarray,
        diameter: int,
        die_quality: np.ndarray,
    ) -> "WaferReport":
        """The report over the GOOD dies of ``sites`` and their aligned
        die planes."""
        good = np.asarray(die_quality) == int(DieQuality.GOOD)
        return cls(
            dies=[
                DieSite(x, y, r, float(mean), float(sigma))
                for (x, y, r), mean, sigma, ok in zip(
                    sites, die_means, die_sigmas, good
                )
                if ok
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
