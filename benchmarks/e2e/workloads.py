"""The end-to-end workloads: inputs from a seed, one timed op, output checks.

Each workload builds its inputs from ``seed`` alone and hands the
program only those inputs.  Sizes are constructor arguments, so the
tests run every op at a tiny size.  The benchmark calls only public
APIs: calls that name a wrapped layer (``repro.design_structure``,
``repro.fleet.merge_lot``) go through their module so the traced run
sees them.

``setup()`` builds inputs, calibrates and runs one untimed warm-up op;
``op()`` is the timed operation; ``check()`` digests and checks one
op's output outside the timing; ``finish()`` runs a cross-path oracle
once after the timed loop.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
import repro.fleet
from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
from repro.resilience import Checkpointer
from repro.units import fF

MACRO_ROWS, MACRO_COLS = 16, 2
NOMINAL = 30 * fF
MISMATCH = 0.8 * fF
#: The paper's measurement accuracy, in percent.
PAPER_ACCURACY_PCT = 6.0
#: Diameter of the untimed warm-up wafer or fleet.
WARMUP_DIAMETER = 7


def digest(**planes: np.ndarray) -> str:
    """sha256 over named planes (name, dtype, shape and bytes)."""
    h = hashlib.sha256()
    for name in sorted(planes):
        plane = np.ascontiguousarray(planes[name])
        h.update(f"{name}:{plane.dtype.str}:{plane.shape};".encode())
        h.update(plane.tobytes())
    return h.hexdigest()


@dataclass
class Check:
    """What the checks found in one op's output (or in an oracle run)."""

    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    bad_cells: int = 0  #: DEGRADED + FAILED cells
    checked_cells: int = 0
    #: Per-op numbers for the result (``accuracy_err_pct``) or the
    #: traced run (``fleet.shard_s``, ``fleet.respawns``).
    extras: dict[str, float] = field(default_factory=dict)


def _quality_check(quality: np.ndarray) -> tuple[int, list[str]]:
    bad = int(np.count_nonzero(quality))
    return bad, [f"{bad} cells not GOOD"] if bad else []


def _mismatch_array(rows: int, cols: int, seed: int) -> repro.EDRAMArray:
    capacitance = compose_maps(
        uniform_map((rows, cols), NOMINAL),
        mismatch_map((rows, cols), MISMATCH, seed=seed),
    )
    return repro.EDRAMArray(
        rows, cols, macro_cols=MACRO_COLS, macro_rows=MACRO_ROWS,
        capacitance_map=capacitance,
    )


class Workload:
    """One workload; subclasses set ``name`` and ``cells`` (cells per op)."""

    name = ""
    cells = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the inputs of the previous set-up (outside its timing)."""

    def op(self):
        raise NotImplementedError

    def check(self, out) -> Check:
        raise NotImplementedError

    def finish(self) -> Check | None:
        return None


class ScanMbit(Workload):
    """``scan()`` + ``AnalogBitmap`` of a defect-free Mbit array."""

    name = "scan-1m"

    def __init__(self, seed: int, work_dir: Path, rows: int = 1024,
                 cols: int = 1024) -> None:
        self.seed, self.rows, self.cols = seed, rows, cols
        self.cells = rows * cols
        self.teardown()

    def teardown(self) -> None:
        self.array = self.structure = self.abacus = self.truth = None

    def setup(self) -> None:
        self.array = _mismatch_array(self.rows, self.cols, self.seed)
        self.truth = self.array.capacitance_matrix()
        self.structure = repro.design_structure(
            self.array.tech, MACRO_ROWS, MACRO_COLS, bitline_rows=self.rows
        )
        self.abacus = repro.Abacus.for_array(self.structure, self.array)
        self.op()

    def op(self):
        scan = repro.ArrayScanner(self.array, self.structure).scan()
        return scan, repro.AnalogBitmap(scan, self.abacus)

    def check(self, out) -> Check:
        scan, bitmap = out
        bad, problems = _quality_check(scan.quality)
        in_range = bitmap.in_range
        truth = self.truth[in_range]
        error_pct = float(
            np.mean(np.abs(bitmap.estimates[in_range] - truth) / truth) * 100
        )
        if not error_pct <= PAPER_ACCURACY_PCT:
            problems.append(
                f"accuracy {error_pct:.2f} % worse than the paper's "
                f"{PAPER_ACCURACY_PCT} %"
            )
        return Check(
            digest=digest(codes=scan.codes, vgs=scan.vgs, quality=scan.quality,
                          estimates=bitmap.estimates),
            problems=problems, bad_cells=bad, checked_cells=scan.codes.size,
            extras={"accuracy_err_pct": error_pct},
        )


class Diagnose(Workload):
    """``DiagnosisPipeline(25 fF, 35 fF).run()`` on a defective die."""

    name = "diagnose-128x64"

    def __init__(self, seed: int, work_dir: Path, rows: int = 128,
                 cols: int = 64) -> None:
        self.seed, self.rows, self.cols = seed, rows, cols
        self.cells = rows * cols
        self.teardown()

    def teardown(self) -> None:
        self.array = self.must_flag = None

    def setup(self) -> None:
        self.array = _mismatch_array(self.rows, self.cols, self.seed)
        injector = repro.DefectInjector(self.array, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        kind = repro.DefectKind
        # Each bridge sits on the left bitline of its own macro, so
        # exactly two macros need the engine tier whatever the seed and
        # the op's cost does not depend on where defects land.
        for index in rng.choice(self.array.num_macros, size=2, replace=False):
            macro = self.array.macro(int(index))
            row = macro.row_start + int(rng.integers(macro.rows))
            injector.inject(row, macro.col_start, repro.CellDefect(kind.BRIDGE))
        injector.scatter(kind.SHORT, 6)
        injector.scatter(kind.OPEN, 6)
        injector.scatter(kind.LOW_CAP, 12, factor=0.5)
        injector.scatter(kind.RETENTION, 6, factor=50.0)
        centre = (int(rng.integers(2, self.rows - 2)),
                  int(rng.integers(2, self.cols - 2)))
        injector.cluster(kind.LOW_CAP, centre, 2, factor=0.6)
        repair = {kind.SHORT, kind.OPEN, kind.LOW_CAP}
        self.must_flag = [
            (row, col, defect.kind) for row, col, defect in injector.injected
            if defect.kind in repair
        ]
        self.op()

    def op(self):
        return repro.DiagnosisPipeline(25 * fF, 35 * fF).run(self.array)

    def check(self, report) -> Check:
        bad, problems = _quality_check(report.scan.quality)
        missed = [
            f"{kind.value}@({row},{col})" for row, col, kind in self.must_flag
            if not report.must_repair[row, col]
        ]
        if missed:
            problems.append(f"not in must_repair: {', '.join(missed)}")
        verdicts = np.array([v.value for v in report.verdicts.ravel()])
        return Check(
            digest=digest(codes=report.scan.codes, vgs=report.scan.vgs,
                          quality=report.scan.quality,
                          digital=report.digital.fails,
                          verdicts=verdicts, must_repair=report.must_repair),
            problems=problems, bad_cells=bad,
            checked_cells=report.scan.codes.size,
        )


class ScanCheckpointed(Workload):
    """A recorded, checkpointed scan: ``repro scan --record --checkpoint``."""

    name = "scan-ckpt"

    def __init__(self, seed: int, work_dir: Path, rows: int = 128,
                 cols: int = 64) -> None:
        self.seed, self.rows, self.cols = seed, rows, cols
        self.cells = rows * cols
        self.ledger_root = Path(work_dir) / "ledger"
        self.teardown()

    def teardown(self) -> None:
        self.array = self.structure = self.reference = self.ledger = None
        shutil.rmtree(self.ledger_root, ignore_errors=True)

    def setup(self) -> None:
        self.array = _mismatch_array(self.rows, self.cols, self.seed)
        self.structure = repro.design_structure(
            self.array.tech, MACRO_ROWS, MACRO_COLS, bitline_rows=self.rows
        )
        self.reference = repro.ArrayScanner(self.array, self.structure).scan()
        self.ledger = repro.RunLedger(self.ledger_root)
        self.op()
        self.manifests = len(self.ledger.runs())

    def op(self):
        config = repro.ScanConfig(
            ledger=self.ledger, checkpoint=Checkpointer(self.ledger)
        )
        return repro.ArrayScanner(self.array, self.structure).scan(config)

    def check(self, scan) -> Check:
        bad, problems = _quality_check(scan.quality)
        ref = self.reference
        for plane in ("codes", "vgs", "tiers", "quality"):
            if not np.array_equal(getattr(scan, plane), getattr(ref, plane)):
                problems.append(f"{plane} differ from a plain scan()")
        manifests = len(self.ledger.runs())
        if manifests != self.manifests + 1:
            problems.append(
                f"ledger gained {manifests - self.manifests} manifests, not 1"
            )
        self.manifests = manifests
        leftover = sorted(p.name for p in self.ledger.checkpoint_dir.glob("*"))
        if leftover:
            problems.append(f"checkpoint files left: {leftover}")
        return Check(
            digest=digest(codes=scan.codes, vgs=scan.vgs, tiers=scan.tiers,
                          quality=scan.quality),
            problems=problems, bad_cells=bad, checked_cells=scan.codes.size,
        )


def _die_cells(diameter: int) -> int:
    model = repro.WaferModel(diameter_dies=diameter)
    return len(model.sites()) * model.die_rows * model.die_cols


def _die_check(means: np.ndarray, cell_quality: np.ndarray | None = None) -> Check:
    """Digest of the die means (the plane wafer and fleet share), and
    the DEGRADED/FAILED cells when the path reports cell quality."""
    check = Check(digest=digest(die_means=means))
    if not np.isfinite(means).all():
        check.problems.append("unmeasured dies")
    if cell_quality is not None:
        check.bad_cells, problems = _quality_check(cell_quality)
        check.problems += problems
        check.checked_cells = cell_quality.size
    return check


def _report_means(report) -> np.ndarray:
    return np.array([die.mean_capacitance for die in report.dies])


class Wafer(Workload):
    """``WaferModel(diameter_dies, seed).measure_wafer()`` in one process."""

    name = "wafer-d41"

    def __init__(self, seed: int, work_dir: Path, diameter: int = 41) -> None:
        self.seed, self.diameter = seed, diameter
        self.cells = _die_cells(diameter)

    def setup(self) -> None:
        repro.WaferModel(diameter_dies=WARMUP_DIAMETER, seed=self.seed).measure_wafer()

    def op(self):
        return repro.WaferModel(
            diameter_dies=self.diameter, seed=self.seed
        ).measure_wafer()

    def check(self, report) -> Check:
        return _die_check(_report_means(report))

    def finish(self) -> Check:
        """The same wafer as one die range, which also gives cell quality."""
        model = repro.WaferModel(diameter_dies=self.diameter, seed=self.seed)
        dies = model.measure_dies((0, len(model.sites())))
        return _die_check(dies.die_means, dies.die_cell_quality)


class Fleet(Workload):
    """The same wafer as a 2-shard ``FleetOrchestrator.run()`` + ``merge_lot()``."""

    name = "fleet-d41"

    def __init__(self, seed: int, work_dir: Path, diameter: int = 41) -> None:
        self.seed, self.diameter = seed, diameter
        self.cells = _die_cells(diameter)
        self.work_dir = Path(work_dir)
        self.runs = 0

    def _run(self, diameter: int):
        self.runs += 1
        orchestrator = repro.fleet.FleetOrchestrator(
            self.work_dir / f"fleet-{self.runs}",
            wafer={"diameter_dies": diameter, "seed": self.seed},
            shards=2,
        )
        report = orchestrator.run()
        return orchestrator, report, repro.fleet.merge_lot(orchestrator.root)

    def setup(self) -> None:
        orchestrator, _report, _lot = self._run(WARMUP_DIAMETER)
        shutil.rmtree(orchestrator.root)

    def op(self):
        return self._run(self.diameter)

    def check(self, out) -> Check:
        orchestrator, report, lot = out
        try:
            check = _die_check(lot.die_means, lot.die_cell_quality)
            if report.state != "healthy" or lot.state != "healthy":
                check.problems.append(
                    f"fleet {report.state}, lot {lot.state}, not healthy"
                )
            if report.respawns:
                check.problems.append(f"{report.respawns} shard respawns")
            shard_seconds = [
                manifest.wall_seconds
                for shard in report.shards
                for manifest in repro.RunLedger(
                    orchestrator.shard_root(shard.shard_id)
                ).runs()
                if manifest.kind == "shard"
            ]
            check.extras = {
                "fleet.shard_s": max(shard_seconds, default=0.0),
                "fleet.respawns": float(report.respawns),
            }
        finally:
            shutil.rmtree(orchestrator.root)
        return check

    def finish(self) -> Check:
        """Cross-path oracle: the lot must equal an in-process wafer."""
        report = repro.WaferModel(
            diameter_dies=self.diameter, seed=self.seed
        ).measure_wafer()
        return _die_check(_report_means(report))


#: Workload name -> class, constructed as ``(seed, work_dir, **sizes)``.
WORKLOADS = {
    workload.name: workload
    for workload in (ScanMbit, Diagnose, ScanCheckpointed, Wafer, Fleet)
}
