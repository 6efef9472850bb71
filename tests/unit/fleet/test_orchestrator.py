"""Orchestrator supervision: stale leases must never condemn fresh workers,
and no worker outlives the orchestrator.

The wedge-kill channel reads lease files, and a fresh worker needs a
beat of interpreter startup before it writes its own — so any lease
surviving from a previous generation or a previous fleet in the same
root (the default ``.repro-fleet``) must be ignored, or every respawn
is SIGKILLed on sight and recovery can never succeed.
"""

import time

import pytest

from repro.fleet import FleetOrchestrator
from repro.fleet.lease import ShardLease, write_lease
from repro.resilience import Fault, FaultPlan, inject

WAFER = {"diameter_dies": 3, "seed": 11}


def test_preexisting_stale_lease_does_not_kill_fresh_worker(tmp_path):
    root = tmp_path / "fleet"
    # An hour-stale lease from some dead prior process: under the old
    # unguarded check its age alone exceeded any heartbeat timeout, so
    # the first poll killed the brand-new worker before it could write
    # a lease of its own — on every retry.
    stale = ShardLease(
        shard_id=0, start=0, stop=9, pid=1, generation=0,
        heartbeat=time.time() - 3600.0,
    )
    write_lease(root / "leases" / "s00.json", stale)

    report = FleetOrchestrator(
        root, wafer=WAFER, shards=1, poll_seconds=0.02,
    ).run()
    assert report.state == "healthy"
    assert report.respawns == 0
    assert report.shards[0].exitcode == 0


def test_rerun_in_same_root_survives_previous_leases(tmp_path):
    root = tmp_path / "fleet"
    orchestrator = FleetOrchestrator(
        root, wafer=WAFER, shards=1, poll_seconds=0.02,
    )
    assert orchestrator.run().state == "healthy"
    # The first run's lease (state done, ageing heartbeat) is still on
    # disk; a second fleet in the same root must start cleanly.
    assert orchestrator.run().state == "healthy"


def test_exception_in_run_kills_and_reaps_live_workers(tmp_path, monkeypatch):
    # Shard 0 is spawned before shard 1's spec is written; an exception
    # there must not leave shard 0 running on as an orphan that keeps
    # writing its checkpoint, lease and result under a "running" fleet.
    spawned = []
    real_spawn = FleetOrchestrator._spawn

    def recording_spawn(self, status):
        proc = real_spawn(self, status)
        spawned.append(proc)
        return proc

    monkeypatch.setattr(FleetOrchestrator, "_spawn", recording_spawn)
    root = tmp_path / "fleet"
    orchestrator = FleetOrchestrator(
        root, wafer=WAFER, shards=2, poll_seconds=0.02, max_concurrent=2,
    )
    plan = FaultPlan([Fault(
        "durable.write", error=KeyboardInterrupt(),
        match={"target": "s01.json", "parent": "specs"},
    )])
    with inject(plan), pytest.raises(KeyboardInterrupt):
        orchestrator.run()
    (shard0,) = spawned
    assert shard0.poll() is not None
    assert not (root / "results" / "s00.npz").exists()
    assert not list(root.rglob("*.tmp"))
