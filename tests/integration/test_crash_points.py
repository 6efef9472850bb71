"""Crash-point drill: fail at every persistence boundary, then recover.

Every whole-file write goes through ``durable_write``, whose
``durable.write`` fault point sits between the tmp's fsync and its
rename; every append — a checkpoint segment, a run-ledger manifest
line — goes through ``durable_append``, whose ``durable.append`` fault
point fires before any byte is written; and a finished run file gets
its second name — a recorded scan's artifact, a shard's result —
through ``durable_link``, whose ``durable.link`` fault point sits
between the link at the tmp and its rename.  The persistence boundaries
of a run are therefore exactly the invocations of those three sites,
and the code lists them itself: after a
clean run, each setting is replayed with one fault at the k-th
invocation of a site (``after=k, times=1``) for k = 0, 1, 2, ... until
a replay in which the fault never fires (the method of ALICE, Pillai et
al., OSDI 2014, and CrashMonkey, Mohan et al., OSDI 2018).

Every replay must recover to planes bit-identical with the clean run
(or an exact FAILED range), leave no ``*.tmp`` under its root, refuse a
resume only with a :class:`CheckpointError` that says why (a fresh run
then reproduces the clean planes), and leave no worker process running
once its orchestrator returns or raises.
"""

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.errors import CheckpointError
from repro.fleet import FleetOrchestrator, merge_lot
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs.ledger import RunLedger
from repro.resilience import Checkpointer, Fault, FaultPlan, RetryPolicy, inject
from repro.resilience.checkpoint import list_checkpoints
from repro.wafer import WaferModel

SITES = ("durable.write", "durable.append", "durable.link")

WAFER = {"diameter_dies": 5, "seed": 3}  # 21 dies

_LOT_PLANES = (
    "die_means", "die_sigmas", "die_vgs", "die_codes", "die_quality",
)


def _drill(replay) -> dict[str, int]:
    """Boundaries per site: replays whose fault fired, counted until one
    does not."""
    found = {}
    for site in SITES:
        k = 0
        while replay(site, k):
            k += 1
        found[site] = k
    return found


def _no_tmp(root):
    assert sorted(str(p) for p in root.rglob("*.tmp")) == []


def _resume_or_restart(run, ledger, run_id):
    """Resume the interrupted run; if nothing is left to resume, the
    refusal must say why and a fresh run must take over."""
    unfinished = [c.run_id for c in list_checkpoints(ledger)]
    if unfinished:
        assert unfinished == [run_id]
        return run(Checkpointer(ledger, resume=run_id))
    with pytest.raises(CheckpointError, match=f"no checkpoint '{run_id}'"):
        run(Checkpointer(ledger, resume=run_id))
    return run(Checkpointer(ledger))


def _interrupted_in_process(tmp_path, run, site, k):
    """One in-process replay: KeyboardInterrupt at the k-th ``site``,
    then resume (or refuse + restart).  Returns (fired, result, ledger)."""
    root = tmp_path / f"{site}-{k}"
    ledger = RunLedger(root)
    checkpointer = Checkpointer(ledger)
    plan = FaultPlan([Fault(site, error=KeyboardInterrupt(), after=k, times=1)])
    try:
        with inject(plan):
            result = run(checkpointer)
    except KeyboardInterrupt:
        assert plan.firings
        _no_tmp(root)
        run_id = checkpointer.state.run_id if checkpointer.state else "r0001"
        result = _resume_or_restart(run, ledger, run_id)
    assert list_checkpoints(ledger) == []
    assert len(ledger.runs()) == 1
    _no_tmp(root)
    return bool(plan.firings), result, ledger


# ----------------------------------------------------------------------
# Scan: in-process, recorded and checkpointed
# ----------------------------------------------------------------------


def _scan(checkpointer):
    array = EDRAMArray(16, 8, macro_rows=4, macro_cols=4)
    return ArrayScanner(array, None).scan(
        ScanConfig(checkpoint=checkpointer, ledger=checkpointer.ledger)
    )


def test_scan_recovers_from_every_crash_point(tmp_path):
    clean = _scan(Checkpointer(tmp_path / "clean"))

    def replay(site, k):
        fired, result, ledger = _interrupted_in_process(tmp_path, _scan, site, k)
        _assert_scan_equal(result, clean)
        _assert_scan_equal(ledger.load_artifact(ledger.runs()[0]), clean)
        return fired

    # Writes: the reservation.  Appends: one segment per macro-row slab
    # (4) and the manifest line.  Links: the checkpoint kept as the
    # artifact — the planes are not written a second time.
    assert _drill(replay) == {
        "durable.write": 1, "durable.append": 5, "durable.link": 1,
    }


def _assert_scan_equal(result, clean):
    for plane in ("vgs", "codes", "tiers", "quality"):
        np.testing.assert_array_equal(getattr(result, plane), getattr(clean, plane))


def test_scan_keep_boundary_leaves_a_checkpoint_or_a_recorded_run(
    tmp_path, monkeypatch
):
    """Flush, link, manifest line, unlink: a crash before the line
    leaves the checkpoint resumable; a crash after it, a recorded run
    whose artifact reads back bit-identical."""
    clean = _scan(Checkpointer(tmp_path / "clean"))
    real_finish = Checkpointer.finish

    def crash(checkpointer):
        raise KeyboardInterrupt

    for boundary in ("link", "line", "unlink"):
        ledger = RunLedger(tmp_path / boundary)
        artifact = ledger.artifact_dir / "r0001.npz"
        plan = FaultPlan({
            "link": [Fault("durable.link", error=KeyboardInterrupt())],
            "line": [Fault("durable.append", error=KeyboardInterrupt(),
                           match={"target": "manifest.jsonl"})],
            "unlink": [],
        }[boundary])
        monkeypatch.setattr(
            Checkpointer, "finish", crash if boundary == "unlink" else real_finish
        )
        with inject(plan), pytest.raises(KeyboardInterrupt):
            _scan(Checkpointer(ledger))
        monkeypatch.setattr(Checkpointer, "finish", real_finish)
        _no_tmp(ledger.root)
        (state,) = list_checkpoints(ledger)
        assert state.remaining == 0, boundary
        assert artifact.exists() == (boundary != "link"), boundary
        if boundary == "unlink":
            # Recorded: the artifact is the checkpoint, not a copy.
            assert artifact.stat().st_ino == (
                ledger.checkpoint_dir / "r0001.npz"
            ).stat().st_ino
            _assert_scan_equal(ledger.load_artifact(ledger.get("r0001")), clean)
            continue
        assert ledger.runs() == [], boundary
        resumed = _scan(Checkpointer(ledger, resume="r0001"))
        _assert_scan_equal(resumed, clean)
        _assert_scan_equal(ledger.load_artifact(ledger.get("r0001")), clean)
        assert list_checkpoints(ledger) == [] and len(ledger.runs()) == 1
        _no_tmp(ledger.root)


def test_recorded_checkpointed_scan_writes_its_planes_once(tmp_path, monkeypatch):
    """Plane bytes reach disk only as checkpoint segments; the artifact
    is the same file under a second name."""
    from repro.resilience import checkpoint as checkpoint_module

    written = []
    real_write_planes = checkpoint_module.write_planes

    def spy(fh, header, planes):
        written.append((header["kind"], len(planes)))
        return real_write_planes(fh, header, planes)

    def no_second_copy(*args, **kwargs):
        raise AssertionError("save_scan wrote the planes a second time")

    monkeypatch.setattr(checkpoint_module, "write_planes", spy)
    monkeypatch.setattr("repro.io.save_scan", no_second_copy)
    result = _scan(Checkpointer(tmp_path))
    # The header holds no planes; the 4 macro-row slabs one segment each.
    assert written == [("checkpoint", 0)] + [("segment", 4)] * 4
    ledger = RunLedger(tmp_path)
    _assert_scan_equal(ledger.load_artifact(ledger.get("r0001")), result)


# ----------------------------------------------------------------------
# CLI scan: repro scan --record D --checkpoint D
# ----------------------------------------------------------------------

CLI_SCAN = ["scan", "--rows", "16", "--cols", "8", "--macro-rows", "8",
            "--healthy"]


def test_cli_scan_recovers_from_every_crash_point(tmp_path, capsys):
    from repro.cli import main
    from repro.io import load_scan

    assert main([*CLI_SCAN, "--save", str(tmp_path / "plain.npz")]) == 0
    clean = load_scan(tmp_path / "plain.npz")

    def cli_scan(root, *extra):
        return main([*CLI_SCAN, "--record", str(root),
                     "--checkpoint", str(root), *extra])

    def replay(site, k):
        root = tmp_path / f"cli-{site}-{k}"
        ledger = RunLedger(root)
        plan = FaultPlan([Fault(site, error=KeyboardInterrupt(), after=k, times=1)])
        with inject(plan):
            status = cli_scan(root)
        if plan.firings:
            assert status == 130
            _no_tmp(root)
            unfinished = [c.run_id for c in list_checkpoints(ledger)]
            resume = ("--resume", unfinished[0]) if unfinished else ()
            status = cli_scan(root, *resume)
        assert status == 0
        capsys.readouterr()
        assert list_checkpoints(ledger) == []
        (manifest,) = ledger.runs()
        _assert_scan_equal(ledger.load_artifact(manifest), clean)
        _no_tmp(root)
        return bool(plan.firings)

    # Writes: the reservation only — no whole artifact.  Appends: one
    # segment per macro-row slab (2) and the manifest line.  Links: the
    # checkpoint kept as the artifact.
    assert _drill(replay) == {
        "durable.write": 1, "durable.append": 3, "durable.link": 1,
    }


# ----------------------------------------------------------------------
# Wafer: measure_wafer with a checkpoint
# ----------------------------------------------------------------------


#: The crash-point wafer: its 64x32 dies stack four to a chunk (8,192
#: cells), so its 21 dies land as six chunks and a crash can fall
#: between chunk segments, after some dies are persisted.
CHUNKED_WAFER = {**WAFER, "die_rows": 64, "die_cols": 32}


def _wafer(checkpointer):
    report = WaferModel(**CHUNKED_WAFER).measure_wafer(
        ScanConfig(checkpoint=checkpointer, ledger=checkpointer.ledger)
    )
    return np.array(
        [(d.mean_capacitance, d.sigma_capacitance) for d in report.dies]
    )


def test_wafer_recovers_from_every_crash_point(tmp_path):
    clean = _wafer(Checkpointer(tmp_path / "clean"))

    def replay(site, k):
        fired, result, _ = _interrupted_in_process(tmp_path, _wafer, site, k)
        np.testing.assert_array_equal(result, clean)
        return fired

    # Writes: the reservation.  Appends: one segment per landed chunk
    # (6: a chunk is marked done as one segment, after all its dies'
    # events) and the manifest line.  Links: none — a wafer manifest
    # has no artifact.
    assert _drill(replay) == {
        "durable.write": 1, "durable.append": 7, "durable.link": 0,
    }


# ----------------------------------------------------------------------
# Fleet: shard workers and the orchestrator + merge
# ----------------------------------------------------------------------


def _fleet(root, **overrides):
    return FleetOrchestrator(
        root, wafer=dict(WAFER), shards=2,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        max_concurrent=2, **overrides,
    )


@pytest.fixture(scope="module")
def clean_lot(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean") / "fleet"
    assert _fleet(root).run().state == "healthy"
    return merge_lot(root)


@pytest.fixture
def spawned(monkeypatch):
    """Every worker process the orchestrator starts."""
    procs = []
    real_spawn = FleetOrchestrator._spawn

    def recording_spawn(self, status):
        proc = real_spawn(self, status)
        procs.append(proc)
        return proc

    monkeypatch.setattr(FleetOrchestrator, "_spawn", recording_spawn)
    return procs


def _assert_lot_matches(lot, clean):
    assert lot.state == "healthy" and lot.failed_ranges == []
    for plane in _LOT_PLANES:
        np.testing.assert_array_equal(getattr(lot, plane), getattr(clean, plane))


def _assert_no_orphans(procs):
    assert [p.pid for p in procs if p.poll() is None] == []


def test_shard_workers_recover_from_every_crash_point(
    tmp_path, clean_lot, spawned
):
    def replay(site, k, match=None):
        root = tmp_path / f"{site}-{k}-{'ledger' if match else 'any'}"
        faults = {"seed": 0, "faults": [{
            "site": site, "kind": "kill", "after": k, "times": 1,
            "match": match or {},
        }]}
        report = _fleet(root, faults=faults, fault_attempts="first").run()
        _assert_no_orphans(spawned)
        assert report.state == "healthy"
        _assert_lot_matches(merge_lot(root), clean_lot)
        _no_tmp(root)
        return report.respawns > 0

    found = _drill(replay)
    ledger_lines = 0
    while replay("durable.append", ledger_lines, {"target": "manifest.jsonl"}):
        ledger_lines += 1
    # Per worker: the first lease, the checkpoint reservation and the
    # done lease at least; heartbeats add more.  Appends: one shard
    # manifest line each, plus a checkpoint segment whenever a worker
    # outlives its save throttle.  Links: the checkpoint kept as the
    # result, once per worker.
    assert found["durable.write"] >= 3
    assert found["durable.append"] >= 1
    assert found["durable.link"] == 1
    assert ledger_lines == 1


def test_shard_workers_keep_boundary_leaves_a_resumable_checkpoint(
    tmp_path, clean_lot, spawned
):
    """A worker killed at its result link, or at the manifest line right
    after it, leaves its finished checkpoint; a fleet re-run in the root
    resumes it and the lot matches."""
    for site, match in (("durable.link", {}),
                        ("durable.append", {"target": "manifest.jsonl"})):
        root = tmp_path / site / "fleet"
        faults = {"seed": 0, "faults": [
            {"site": site, "kind": "kill", "times": 1, "match": match},
        ]}
        report = FleetOrchestrator(
            root, wafer=dict(WAFER), shards=2,
            retry=RetryPolicy(max_attempts=1), max_concurrent=2,
            faults=faults, fault_attempts="first",
        ).run()
        _assert_no_orphans(spawned)
        assert report.state == "failed", site
        for shard in ("s00", "s01"):
            ledger = RunLedger(root / "shards" / shard)
            (state,) = list_checkpoints(ledger)
            assert state.remaining == 0, (site, shard)
            assert ledger.runs() == [], (site, shard)
            result = root / "results" / f"{shard}.npz"
            assert result.exists() == (site == "durable.append"), (site, shard)
        assert _fleet(root).run().state == "healthy"
        _assert_no_orphans(spawned)
        _assert_lot_matches(merge_lot(root), clean_lot)
        _no_tmp(root)


def test_orchestrator_and_merge_recover_from_every_crash_point(
    tmp_path, clean_lot, spawned
):
    def job(root, ledger):
        _fleet(root).run()
        return merge_lot(root, ledger=ledger)

    def replay(site, k):
        root = tmp_path / f"{site}-{k}" / "fleet"
        ledger = RunLedger(root.parent / "lots")
        plan = FaultPlan([
            Fault(site, error=KeyboardInterrupt(), after=k, times=1)
        ])
        try:
            with inject(plan):
                lot = job(root, ledger)
        except KeyboardInterrupt:
            _assert_no_orphans(spawned)
            lot = job(root, ledger)
        _assert_no_orphans(spawned)
        _assert_lot_matches(lot, clean_lot)
        assert len(ledger.runs()) == 1
        _no_tmp(root.parent)
        return bool(plan.firings)

    # Writes: fleet.json twice, two specs, lot.npz, lot.json.  Appends:
    # the lot's manifest line (the workers' appends and links run in
    # their own processes, outside this plan).
    assert _drill(replay) == {
        "durable.write": 6, "durable.append": 1, "durable.link": 0,
    }
