"""Wafer-level process monitoring on top of per-die analog bitmaps.

A wafer is a disk of dies; capacitor-module deposition is rarely uniform
across it (radial thickness profiles, zone-dependent etch).  With an
embedded measurement structure on every die, the analog bitmaps compose
into a wafer map — the standard artefact a process engineer reads.

:class:`WaferModel` synthesizes a wafer (per-die mean capacitance from a
radial + random profile), measures every die through the scan kernel,
and :class:`WaferReport` aggregates: per-die means, zonal statistics
(centre/mid/edge rings), radial regression, and an ASCII wafer map.

Dies are tiny and many, so per-die fixed costs (array, scanner, scan
result, bitmap) would dwarf their kernel work.  Every die carries the
same defect-free measurement structure, so a chunk of dies is one die
stack: the chunk's dies are fabricated in one pass straight into its
capacitance plane, one kernel pass measures the stack, every die's mean
and sigma come from one reduction over it, and a checkpoint persists it
as one segment (see :meth:`WaferModel._scan_dies`).  Each die keeps its
own mismatch stream, ``default_rng(mismatch_seed)`` — numpy's seeding
contract (https://numpy.org/neps/nep-0019-rng-policy.html) — but the
chunk seeds all of them from one array pass
(:func:`~repro.edram.variation_map.mismatch_stack`), bit-identical to
seeding each die alone.  The die draws themselves stay per die
(:meth:`WaferModel._draw_die`).  There is no per-die scan: a config
asking for one (``force_engine``, ``preflight``) is refused.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro._lazy import lazy_exports
from repro.errors import DiagnosisError, MeasurementError
from repro.measure.config import ScanConfig
from repro.measure.kernel import KernelConstants, closed_form_vgs_plane
from repro.obs.ledger import config_fingerprint
from repro.resilience.faults import fault_point, inject
from repro.resilience.quality import quality_plane
from repro.technologies import get as get_technology
from repro.units import fF, to_fF

if TYPE_CHECKING:
    from repro.calibration.abacus import Abacus
    from repro.edram.array import EDRAMArray
    from repro.measure.structure import MeasurementStructure

# The die loop reads a solved DieCalibration, so the calibration and
# circuit packages load only when a wafer solves its own.
# ``repro.wafer.design_structure`` still resolves, on first read, for
# callers that look it up here (the end-to-end benchmark's layer map).
__getattr__, __dir__ = lazy_exports(__name__, {"design_structure": "repro.calibration.design"})

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
    die_quality: np.ndarray  #: (N,) uint8 DieQuality
    run_id: str | None = None

    @property
    def die_cell_quality(self) -> np.ndarray:
        """An all-GOOD cell-quality plane shaped like ``die_codes``.

        No wafer die takes an array scan, so no cell can read anything
        but GOOD and no such plane is stored.  The view stays only for
        the end-to-end benchmark's checks (``Wafer.finish``,
        ``Fleet.check`` in ``benchmarks/e2e/workloads.py``); it goes
        when that benchmark changes.
        """
        return quality_plane(self.die_codes.shape)


@dataclass(frozen=True, eq=False)
class DieCalibration:
    """What the die loop reads of a wafer's calibration.

    Every die carries an identical copy of the measurement structure,
    so one solve serves every die of a lot: the kernel's constants, the
    code-boundary table the codes are looked up in
    (:meth:`~repro.measure.structure.MeasurementStructure.code_boundaries`)
    and the abacus bin midpoints the die statistics average
    (:attr:`~repro.calibration.abacus.Abacus.mids`).  A fleet solves it
    once per lot and ships :meth:`to_json` in every shard spec; JSON
    writes each float's shortest round-tripping ``repr``, so
    :meth:`from_json` gives back every bit.
    """

    constants: KernelConstants
    boundaries: np.ndarray  #: (num_steps,) V_GS at each code step, volts
    mids: np.ndarray  #: (num_steps + 1,) bin midpoint per code, farads

    @property
    def num_steps(self) -> int:
        return len(self.boundaries)

    def to_json(self) -> dict[str, Any]:
        return {
            "constants": dataclasses.asdict(self.constants),
            "boundaries": self.boundaries.tolist(),
            "mids": self.mids.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "DieCalibration":
        return cls(
            constants=KernelConstants(**payload["constants"]),
            boundaries=np.array(payload["boundaries"], dtype=float),
            mids=np.array(payload["mids"], dtype=float),
        )


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
        self._die_calibration: DieCalibration | None = None

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
        """This wafer's designed structure and abacus, solved afresh
        (:meth:`die_calibration` memoizes what the die loop reads)."""
        from repro.calibration.abacus import Abacus
        from repro.calibration.design import design_structure

        c_lo, c_hi, num_steps = self._backend.measurement_range()
        structure = design_structure(
            self.tech, self.macro_rows, self.macro_cols,
            c_lo=c_lo, c_hi=c_hi, num_steps=num_steps,
            bitline_rows=self.die_rows,
        )
        abacus = Abacus.analytic(
            structure, self.macro_rows, self.macro_cols,
            bitline_rows=self.die_rows,
        )
        return structure, abacus

    def die_calibration(self) -> DieCalibration:
        """This wafer's :class:`DieCalibration`, solved once per model.

        The kernel constants are an
        :class:`~repro.measure.scan.ArrayScanner`'s for one die of the
        backend's array class: they read only the die geometry and the
        card, so a chunk of stacked dies measures bit-identical to
        scanning each die alone.
        """
        if self._die_calibration is None:
            from repro.measure.scan import ArrayScanner

            structure, abacus = self._calibration()
            array = self._backend.array_class()(
                self.die_rows, self.die_cols, tech=self.tech,
                macro_cols=self.macro_cols, macro_rows=self.macro_rows,
            )
            self._die_calibration = DieCalibration(
                constants=ArrayScanner(array, structure).kernel_constants(),
                boundaries=structure.code_boundaries(),
                mids=abacus.mids,
            )
        return self._die_calibration

    def _draw_die(self, radius_fraction: float) -> tuple[float, int]:
        """One die's ``(mean, mismatch_seed)`` from the wafer's RNG.

        The wafer model owns the RNG: the die-mean draw and the mismatch
        seed come from *its* stream, in this exact order.  Every printed
        die is drawn, including one that someone else (an earlier run,
        another shard) measures, so checkpoint fast-forward and every
        die-range partition print the same dies as one uninterrupted
        walk.  It stays one call per die: both draws consume a variable
        number of words from the stream (ziggurat rejection, bounded
        integers), so the dies' draws cannot be batched without
        changing every wafer.  The mismatch seed is below ``2**31``.
        """
        mean = (
            self.nominal
            - self.radial_drop * radius_fraction**2
            + self._rng.normal(0.0, self.die_sigma)
        )
        return mean, int(self._rng.integers(1 << 31))

    def fabricate_die(self, radius_fraction: float) -> EDRAMArray:
        """Build the next die's array with the wafer's process profile.

        Draws the die (:meth:`_draw_die`); the technology backend turns
        the draw into a die array with its own variation model.  Only
        tests and benchmarks call it, as the per-die reference walk: the
        die loop builds no die array.
        """
        mean, mismatch_seed = self._draw_die(radius_fraction)
        return self._backend.fabricate_die(
            self.die_rows, self.die_cols,
            macro_rows=self.macro_rows, macro_cols=self.macro_cols,
            mean=mean, cell_sigma=self.cell_sigma,
            mismatch_seed=mismatch_seed, tech=self.tech,
        )

    def measure_wafer(self, config: ScanConfig | None = None) -> "WaferReport":
        """Fabricate and scan every die; return the wafer report.

        The whole wafer as one die range: :meth:`measure_dies` over
        ``[0, total)``, whose planes the report summarizes.  The
        designed structure and its memoized code-boundary table are
        shared by every die, so calibration is solved once per wafer.

        ``config.progress`` reports at **die** granularity, and
        ``config.ledger`` receives one wafer manifest — not one per die
        — carrying the die-level scalars the drift engine charts
        (:meth:`WaferReport.scalars`).  ``force_engine`` and
        ``preflight`` are refused (:meth:`_checked_config`).

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
        calibration: DieCalibration | None = None,
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
        ``calibration`` is the lot's :class:`DieCalibration` when a
        fleet solved it once for every shard; ``None`` takes this
        wafer's own (:meth:`die_calibration`).
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
        if calibration is None:
            calibration = self.die_calibration()
        self._scan_dies(lo, hi, config, calibration, planes, done, on_die=on_die)
        run_id = checkpointer.run_id if checkpointer is not None else None
        return DieRangeScan(
            die_range=(lo, hi), total_dies=total, run_id=run_id, **planes
        )

    def _checked_config(self, config: ScanConfig | None) -> ScanConfig:
        """``config`` or the wafer's default, checked against the die loop.

        A default config inherits the wafer's technology; an explicit
        one must agree.  ``force_engine`` and ``preflight`` ask for a
        per-die array scan, which the die loop never runs: either is
        refused by name, not ignored.
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
        for option in ("force_engine", "preflight"):
            if getattr(config, option):
                raise MeasurementError(
                    f"config.{option} does not apply to a wafer: its dies are "
                    "measured as die stacks by the scan kernel, with no die "
                    "array to route or check; scan fabricate_die's array instead"
                )
        return config

    def die_planes(self, count: int) -> dict[str, np.ndarray]:
        """Neutral :class:`DieRangeScan` planes for ``count`` dies (NaN
        means and sigmas, zero codes, UNMEASURED quality)."""
        shape = (count, self.die_rows, self.die_cols)
        return {
            "die_means": np.full(count, np.nan),
            "die_sigmas": np.full(count, np.nan),
            "die_vgs": np.zeros(shape),
            "die_codes": np.zeros(shape, dtype=int),
            "die_quality": np.zeros(count, dtype=np.uint8),
        }

    def _scan_dies(
        self,
        lo: int,
        hi: int,
        config: ScanConfig,
        calibration: DieCalibration,
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
        most; a resumed range's gap ends one).  The loop only collects
        each die's draw; the chunk is fabricated in one pass (one
        ``fabricate`` span): the backend's ``fabricate_dies`` seeds
        every die's mismatch generator from one array pass and writes
        the dies into a preallocated ``(chunk, die_rows, die_cols)``
        capacitance plane.  The draws themselves stay per die: a normal
        draw consumes a variable number of words from the wafer stream,
        so no batched draw could print the same dies.  No die carries a
        defect, so one zero kind plane serves every pass.  One kernel
        pass (one ``kernel`` span: the closed form, then a lookup in
        ``calibration``'s boundary table) measures the chunk, its vgs
        and codes land as one slice each, and every die's mean and sigma
        come from one reduction (:func:`_die_statistics`).  Then the ``wafer.die_done`` fault
        site, progress and ``on_die`` fire per die, in die order, and a
        checkpoint marks the chunk's dies as one segment.
        """
        progress, checkpointer = config.progress, config.checkpoint
        rows, cols = self.die_rows, self.die_cols
        chunk_dies = max(1, _CHUNK_CELLS // (rows * cols))
        cap = np.empty((chunk_dies, rows, cols))
        kinds = np.zeros((chunk_dies * rows, cols), dtype=np.int8)
        #: (index, x, y) and (mean, mismatch_seed) of consecutive dies.
        chunk: list[tuple[int, int, int]] = []
        draws: list[tuple[float, int]] = []

        def flush() -> None:
            """Fabricate and measure the chunk as one die stack; land it
            in die order."""
            n, first = len(chunk), chunk[0][0] - lo
            dies = slice(first, first + n)
            means, seeds = zip(*draws)
            with config.tracer.span("fabricate", dies=n):
                self._backend.fabricate_dies(
                    cap, means=np.array(means), cell_sigma=self.cell_sigma,
                    seeds=np.array(seeds),
                )
            with config.tracer.span("kernel", rows=n * rows, cols=cols):
                vgs = closed_form_vgs_plane(
                    cap[:n].reshape(n * rows, cols), kinds[: n * rows],
                    calibration.constants,
                )
                codes = np.searchsorted(calibration.boundaries, vgs, side="right")
            means, sigmas = _die_statistics(
                calibration.mids, calibration.num_steps, codes.reshape(n, rows * cols)
            )
            planes["die_means"][dies], planes["die_sigmas"][dies] = means, sigmas
            planes["die_vgs"][dies] = vgs.reshape(n, rows, cols)
            planes["die_codes"][dies] = codes.reshape(n, rows, cols)
            planes["die_quality"][dies] = np.where(
                np.isnan(means), DieQuality.FAILED, DieQuality.GOOD
            )
            for index, x, y in chunk:
                fault_point("wafer.die_done", die=index, x=x, y=y)
                progress.advance()
                done.add(index)
                if on_die is not None:
                    on_die(index, len(done))
            if checkpointer is not None:
                checkpointer.mark_done(*(index for index, _x, _y in chunk), rows=dies)
            chunk.clear()
            draws.clear()

        with inject(config.faults) if config.faults is not None else nullcontext():
            sites = self._sites
            label = "wafer" if hi - lo == len(sites) else f"shard[{lo},{hi})"
            progress.start(hi - lo, label=label, units="dies")
            for index, (x, y, r) in enumerate(sites):
                mean, mismatch_seed = self._draw_die(r)
                if not lo <= index < hi or index in done:
                    if lo <= index < hi:
                        progress.advance()
                    continue
                if chunk and chunk[-1][0] != index - 1:
                    flush()  # a resumed range's gap: a chunk lands as one slice
                chunk.append((index, x, y))
                draws.append((mean, mismatch_seed))
                if len(chunk) == chunk_dies:
                    flush()
            if chunk:
                flush()
            progress.finish()


def _die_statistics(
    mids: np.ndarray, num_steps: int, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each die's mean and sigma of its in-range estimates, farads.

    ``codes`` holds one die per row, ``(dies, die_rows·die_cols)``,
    row-major within the die; a cell's estimate is ``mids[code]``, and
    codes 0 and ``num_steps`` are out of range.  A die whose cells are all in range is
    reduced along its contiguous row in numpy's own ``mean``/``std``
    order — ``sum/n``, then ``x = e - mean``, ``sqrt(sum(x²)/n)`` — so
    its values are bit-identical to the 1-D ``mean()``/``std()`` of its
    estimates.  Never reduce over axis 0, or over a die's row segments
    first: the summation order, and with it the last bits, would change.
    A die with any out-of-range cell takes the masked 1-D reduction of
    its own estimates; a die with none in range gets NaN for both (the
    die loop lands it FAILED).
    """
    estimates = mids[codes]
    in_range = (codes != 0) & (codes != num_steps)
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


@dataclass
class WaferReport:
    """Aggregated wafer measurements."""

    dies: list[DieSite]  #: the GOOD dies
    diameter: int
    #: ``(x, y)`` of the FAILED dies (no in-range cell to average).
    failed: list[tuple[int, int]] = field(default_factory=list)
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
        die planes; FAILED dies keep only their position."""
        quality = np.asarray(die_quality)
        good = quality == int(DieQuality.GOOD)
        failed = quality == int(DieQuality.FAILED)
        return cls(
            dies=[
                DieSite(x, y, r, float(mean), float(sigma))
                for (x, y, r), mean, sigma, ok in zip(
                    sites, die_means, die_sigmas, good
                )
                if ok
            ],
            diameter=diameter,
            failed=[(x, y) for (x, y, _r), bad in zip(sites, failed) if bad],
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
        """Wafer map: die mean in fF, one cell per die, 'XX' for a
        FAILED die, '..' off-wafer."""
        grid = [["  .. " for _ in range(self.diameter)] for _ in range(self.diameter)]
        for x, y in self.failed:
            grid[y][x] = "  XX "
        for die in self.dies:
            grid[die.y][die.x] = f"{to_fF(die.mean_capacitance):5.1f}"
        lines = ["".join(row) for row in grid]
        lines.append(f"wafer mean: {to_fF(self.wafer_mean):.2f} fF")
        return "\n".join(lines)
