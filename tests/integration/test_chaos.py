"""Chaos drills: the resilience contract, end to end.

The ISSUE-level acceptance scenario: a parallel scan survives a worker
kill *and* a cell whose solver fails *and* a mid-run interrupt, resumes
from its checkpoint, and still produces planes bit-exact with an
uninterrupted run — with the affected cells flagged, never missing.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.errors import SingularCircuitError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs.ledger import RunLedger
from repro.resilience import (
    CellQuality,
    Checkpointer,
    Fault,
    FaultPlan,
    RetryPolicy,
    list_checkpoints,
)

#: 8x8 array in 4 macro tiles of 4x4 — small enough for engine tier.
GEOMETRY = dict(macro_rows=4, macro_cols=4)
RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, seed=0)

#: The solver-failure cell (global address, lives in macro 0).
SICK_CELL = {"row": 1, "col": 1}


def _array():
    return EDRAMArray(8, 8, **GEOMETRY)


def _cell_fault():
    return Fault(
        "sequencer.measure",
        error=SingularCircuitError("injected: plate shorted mid-measure"),
        match=SICK_CELL,
    )


def _kill_fault():
    # Attempt 0 on macro 1 dies in every worker that tries it; the
    # retry (attempt 1) passes.  Matching on the attempt keeps the
    # plan deterministic across respawned workers, which install a
    # fresh copy of the plan (counters reset).
    return Fault("worker.scan_macro", kind="kill", match={"macro": 1, "attempt": 0}, times=None)


def test_chaos_scan_interrupt_resume_bit_exact(tmp_path):
    # Reference: uninterrupted serial run with only the sick cell.
    reference = ArrayScanner(_array(), None).scan(
        ScanConfig(force_engine=True, faults=FaultPlan([_cell_fault()]))
    )
    assert reference.quality[1, 1] == CellQuality.DEGRADED

    ledger = RunLedger(tmp_path)
    interrupt = Fault(
        "scan.macro_done", error=KeyboardInterrupt(), after=1, times=1
    )
    chaos_config = ScanConfig(
        jobs=2,
        force_engine=True,
        retry=RETRY,
        faults=FaultPlan([_cell_fault(), _kill_fault(), interrupt]),
        checkpoint=Checkpointer(ledger),
        ledger=ledger,
    )
    with pytest.raises(KeyboardInterrupt):
        ArrayScanner(_array(), None).scan(chaos_config)

    # The interrupted run left a checkpoint with partial progress and
    # recorded nothing in the manifest.
    states = list_checkpoints(ledger)
    assert [s.run_id for s in states] == ["r0001"]
    assert 1 <= len(states[0].completed) < 4
    assert ledger.runs() == []

    resume_config = ScanConfig(
        jobs=2,
        force_engine=True,
        retry=RETRY,
        faults=FaultPlan([_cell_fault(), _kill_fault()]),
        checkpoint=Checkpointer(ledger, resume="r0001"),
        ledger=ledger,
    )
    result = ArrayScanner(_array(), None).scan(resume_config)

    # Bit-exact planes: resume recomputed exactly the missing macros.
    np.testing.assert_array_equal(result.codes, reference.codes)
    np.testing.assert_array_equal(result.vgs, reference.vgs)
    np.testing.assert_array_equal(result.tiers, reference.tiers)

    # The sick cell is flagged, not missing; nothing else is flagged
    # (the killed macro recovered on retry).
    degraded = np.argwhere(result.quality == CellQuality.DEGRADED)
    assert degraded.tolist() == [[1, 1]] or result.quality[1, 1] == CellQuality.DEGRADED
    assert not (result.quality == CellQuality.FAILED).any()
    assert result.quality_counts()["failed"] == 0

    # Checkpoint consumed; manifest recorded under the reserved id with
    # the quality scalars the drift charts watch.
    assert list_checkpoints(ledger) == []
    runs = ledger.runs()
    assert [m.run_id for m in runs] == ["r0001"]
    assert runs[0].scalars["degraded_cells"] == 1.0
    assert runs[0].scalars["failed_cells"] == 0.0


def test_kill_every_attempt_rescues_in_process_and_flags(tmp_path):
    # Kill *all* attempts of macro 2: the pool exhausts its retries and
    # the scan's final rung re-runs the macro in-process, flagging its
    # cells DEGRADED — values present and bit-exact, provenance marked.
    serial = ArrayScanner(_array(), None).scan(ScanConfig())
    plan = FaultPlan(
        [Fault("worker.scan_macro", kind="kill", match={"macro": 2}, times=None)]
    )
    rescued = ArrayScanner(_array(), None).scan(
        ScanConfig(jobs=2, faults=plan, retry=RETRY)
    )
    np.testing.assert_array_equal(rescued.codes, serial.codes)
    macro = _array().macro(2)
    tile = rescued.quality[macro.row_start:macro.row_stop,
                           macro.col_start:macro.col_stop]
    assert (tile == CellQuality.DEGRADED).all()
    counts = rescued.quality_counts()
    assert counts["degraded"] == tile.size
    assert counts["good"] == serial.codes.size - tile.size
    assert rescued.stats.worker_respawns >= 1
    assert rescued.stats.macro_retries >= RETRY.max_attempts - 1


def test_chaos_kill_retry_under_fecap_backend():
    # The resilience rungs are backend-agnostic: a worker kill plus
    # retry under the FeCap backend recovers bit-exactly.  Scans
    # disturb FeCap state, so the serial reference runs on an
    # identically-seeded twin array rather than a second pass over the
    # chaos array.
    from repro.technologies import get

    backend = get("fecap")
    config = ScanConfig(technology="fecap")
    serial_array = backend.build_array(8, 8, seed=3, with_defects=True, **GEOMETRY)
    chaos_array = backend.build_array(8, 8, seed=3, with_defects=True, **GEOMETRY)
    structure = backend.design_structure(serial_array)

    serial = ArrayScanner(serial_array, structure).scan(config)
    chaos = ArrayScanner(chaos_array, structure).scan(
        ScanConfig(
            technology="fecap",
            jobs=2,
            retry=RETRY,
            faults=FaultPlan([_kill_fault()]),
        )
    )
    np.testing.assert_array_equal(chaos.codes, serial.codes)
    np.testing.assert_array_equal(chaos.vgs, serial.vgs)
    np.testing.assert_array_equal(chaos.quality, serial.quality)
    assert not (chaos.quality == CellQuality.FAILED).any()
    assert chaos.stats.worker_respawns >= 1
    # Both twins took exactly one read of disturb — the chaos retries
    # re-measured, they never re-read the ferroelectric state twice.
    assert serial_array.reads == 1
    assert chaos_array.reads == 1
    np.testing.assert_array_equal(
        serial_array.polarization_view(), chaos_array.polarization_view()
    )


def test_whole_macro_solver_failure_is_flagged_failed():
    # When even the closed form fails for a macro, the tile is zeros +
    # FAILED — visible in the planes, excluded from statistics.
    plan = FaultPlan(
        [Fault(
            "scan.closed_form",
            error=SingularCircuitError("injected: macro calibration dead"),
            match={"macro": 3},
            times=None,
        )]
    )
    result = ArrayScanner(_array(), None).scan(ScanConfig(faults=plan))
    macro = _array().macro(3)
    tile = result.quality[macro.row_start:macro.row_stop,
                          macro.col_start:macro.col_stop]
    assert (tile == CellQuality.FAILED).all()
    assert (result.codes[macro.row_start:macro.row_stop,
                         macro.col_start:macro.col_stop] == 0).all()
    assert result.stats.failed_cells == tile.size


_CTRL_C_SCRIPT = """
import sys
import multiprocessing as mp

from repro.edram.array import EDRAMArray
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.resilience import Fault, FaultPlan

plan = FaultPlan([Fault("worker.scan_macro", kind="sleep", seconds=60.0, times=None)])
array = EDRAMArray(16, 8, macro_rows=4, macro_cols=2)
print("START", flush=True)
try:
    ArrayScanner(array, None).scan(ScanConfig(jobs=2, faults=plan))
except KeyboardInterrupt:
    print("CLEAN" if not mp.active_children() else "ORPHANS", flush=True)
    sys.exit(130)
print("NOINT", flush=True)
"""


def test_ctrl_c_tears_down_workers_within_two_seconds():
    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", _CTRL_C_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == "START"
        time.sleep(1.0)  # let the workers spawn and hit their stalls
        t0 = time.monotonic()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
        elapsed = time.monotonic() - t0
    finally:
        if proc.poll() is None:  # pragma: no cover - only on failure
            proc.kill()
    assert proc.returncode == 130, (out, err)
    assert "CLEAN" in out
    # Forced shutdown is bounded to ~2 s; allow scheduling slack.
    assert elapsed < 4.0, f"teardown took {elapsed:.1f}s"


def test_wafer_interrupt_resume_bit_exact(tmp_path):
    import repro.wafer
    from repro.wafer import WaferModel

    # A d3 wafer is one die chunk; on the d13 one (133 dies of 16x8,
    # 64 per chunk) die 70 sits mid-way through the second chunk, so
    # the interrupt lands after that chunk's kernel pass but before
    # most of its dies have been marked done.
    assert repro.wafer._CHUNK_CELLS // (16 * 8) == 64
    for diameter, interrupted_at in ((3, 2), (13, 70)):
        reference = WaferModel(diameter_dies=diameter, seed=5).measure_wafer()

        ledger = RunLedger(tmp_path / f"d{diameter}")
        interrupt = FaultPlan([
            Fault("wafer.die_done", error=KeyboardInterrupt(),
                  after=interrupted_at, times=1)
        ])
        with pytest.raises(KeyboardInterrupt):
            WaferModel(diameter_dies=diameter, seed=5).measure_wafer(
                config=ScanConfig(checkpoint=Checkpointer(ledger), faults=interrupt)
            )
        states = list_checkpoints(ledger)
        assert [s.kind for s in states] == ["wafer"]
        assert sorted(states[0].completed) == list(range(interrupted_at))

        # Resume on a *fresh* model: the wafer RNG is fast-forwarded past
        # the checkpointed dies, so the remaining dies print identically.
        report = WaferModel(diameter_dies=diameter, seed=5).measure_wafer(
            config=ScanConfig(checkpoint=Checkpointer(ledger, resume="r0001"))
        )
        assert list_checkpoints(ledger) == []
        for die, ref in zip(report.dies, reference.dies):
            assert (die.x, die.y) == (ref.x, ref.y)
            assert die.mean_capacitance == ref.mean_capacitance
            assert die.sigma_capacitance == ref.sigma_capacitance


def test_traced_scan_survives_worker_kill_with_complete_merged_trace(tmp_path):
    """A worker kill under ``--trace`` loses no spans and no cells.

    Only the winning attempt's spans ship with its ack, so the killed
    attempt contributes nothing and the respawned worker's retry fills
    the hole — the merged tree still covers every macro exactly once,
    and the trace file lands atomically.
    """
    from repro.obs import Tracer, load_trace

    reference = ArrayScanner(_array(), None).scan(ScanConfig(force_engine=True))

    tracer = Tracer()
    config = ScanConfig(
        jobs=2,
        force_engine=True,
        retry=RETRY,
        faults=FaultPlan([_kill_fault()]),
        tracer=tracer,
    )
    result = ArrayScanner(_array(), None).scan(config)

    np.testing.assert_array_equal(result.codes, reference.codes)
    np.testing.assert_array_equal(result.vgs, reference.vgs)
    assert result.stats.worker_respawns >= 1

    # One macro span per macro, each stamped with a worker identity and
    # parented under the single scan root — no duplicates from the
    # killed attempt, no gaps from the respawn.
    spans = tracer.spans
    scan_spans = [s for s in spans if s.name == "scan"]
    assert len(scan_spans) == 1
    macro_spans = [s for s in spans if s.name == "macro"]
    assert sorted(s.attributes["index"] for s in macro_spans) == [0, 1, 2, 3]
    assert all(s.parent_id == scan_spans[0].span_id for s in macro_spans)
    assert all(s.attributes["worker_id"] >= 0 for s in macro_spans)
    assert all(s.attributes["pid"] > 0 for s in macro_spans)
    assert all(s.end is not None for s in spans)

    # The export round-trips through the atomic writer.
    path = tmp_path / "chaos-trace.jsonl"
    tracer.write_jsonl(path)
    assert len(load_trace(path)) == len(spans)
    assert not list(tmp_path.glob("*.tmp.*"))
