"""Fleet chaos drills: kill a shard, watch recovery; exhaust retries,
watch degradation.

These are the end-to-end proofs behind the fleet's two promises:

1. **Recovery is invisible.**  A shard killed mid-measurement is
   respawned, resumes from its checkpoint, and the merged lot is
   bit-identical to a fleet that was never touched (the only trace is
   the ``shard_respawns`` telemetry scalar).
2. **Degradation is explicit.**  A shard that dies on every attempt
   exhausts its retry budget; the merge marks exactly its die range
   FAILED, keeps every surviving shard's planes bit-exact, and the
   exit-code ladder reports degraded — never a silent gap, never a
   poisoned healthy lot.
"""

import json

import numpy as np
import pytest

from repro.fleet import FleetOrchestrator, merge_lot
from repro.fleet.orchestrator import EXIT_DEGRADED, EXIT_HEALTHY
from repro.resilience import RetryPolicy
from repro.wafer import DieQuality

DIAMETER = 5  # 21 dies
SEED = 3

_PLANES = (
    "die_means", "die_sigmas", "die_vgs", "die_codes", "die_quality",
)


def _kill_die(die: int) -> dict:
    """A fault plan that kills the worker right after ``die`` completes."""
    return {
        "seed": 0,
        "faults": [{
            "site": "wafer.die_done",
            "kind": "kill",
            "match": {"die": die},
            "times": 1,
        }],
    }


def _fleet(root, **overrides):
    kwargs = dict(
        wafer={"diameter_dies": DIAMETER, "seed": SEED},
        shards=3,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    kwargs.update(overrides)
    return FleetOrchestrator(root, **kwargs)


@pytest.fixture(scope="module")
def unkilled_lot(tmp_path_factory):
    """The control: the same fleet with no faults injected."""
    root = tmp_path_factory.mktemp("control") / "fleet"
    report = _fleet(root).run()
    assert report.state == "healthy"
    assert report.respawns == 0
    return merge_lot(root)


class TestKillAndRecover:
    def test_killed_shard_resumes_and_merges_bit_exact(
        self, tmp_path, unkilled_lot
    ):
        root = tmp_path / "fleet"
        # Die 1 lives in shard 0's range [0, 7); arming the kill only on
        # each shard's first spawn means the respawn survives.
        report = _fleet(
            root, faults=_kill_die(1), fault_attempts="first"
        ).run()

        assert report.state == "healthy"
        assert report.respawns >= 1
        shard0 = report.shards[0]
        assert shard0.state == "done"
        assert shard0.attempts >= 2

        lot = merge_lot(root)
        assert lot.state == "healthy"
        assert lot.exit_code == EXIT_HEALTHY
        assert lot.failed_ranges == []
        for name in _PLANES:
            np.testing.assert_array_equal(
                getattr(lot, name), getattr(unkilled_lot, name),
                err_msg=name,
            )
        # Telemetry is the ONLY legitimate difference between the two
        # lots: the killed fleet records its respawns, nothing else.
        for key, value in unkilled_lot.scalars.items():
            if key == "shard_respawns":
                continue
            assert lot.scalars[key] == value, key
        assert lot.scalars["shard_respawns"] >= 1.0
        assert unkilled_lot.scalars["shard_respawns"] == 0.0


class TestRetryExhaustion:
    def test_exhausted_shard_degrades_explicitly(
        self, tmp_path, unkilled_lot
    ):
        root = tmp_path / "fleet"
        # Die 7 opens shard 1's range [7, 14); arming the kill on EVERY
        # spawn burns through the whole retry budget.
        report = _fleet(
            root,
            faults=_kill_die(7),
            fault_attempts="all",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        ).run()

        assert report.state == "degraded"
        shard1 = report.shards[1]
        assert shard1.state == "failed"
        assert shard1.attempts == 2

        lot = merge_lot(root)
        assert lot.state == "degraded"
        assert lot.exit_code == EXIT_DEGRADED
        assert lot.failed_ranges == [(7, 14)]
        assert (lot.die_quality[7:14] == int(DieQuality.FAILED)).all()
        assert np.isnan(lot.die_means[7:14]).all()
        assert lot.shard_runs["s01"] is None
        # Surviving shards are bit-exact with the healthy control.
        for name in _PLANES:
            np.testing.assert_array_equal(
                getattr(lot, name)[:7], getattr(unkilled_lot, name)[:7],
                err_msg=f"{name} (shard 0)",
            )
            np.testing.assert_array_equal(
                getattr(lot, name)[14:], getattr(unkilled_lot, name)[14:],
                err_msg=f"{name} (shard 2)",
            )
        assert lot.scalars["failed_dies"] == 7.0
        assert lot.scalars["measured_fraction"] == pytest.approx(14 / 21)


class TestCliRoundTrip:
    def test_run_status_merge_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "fleet"
        assert main([
            "fleet", "run", "--root", str(root), "--diameter", "3",
            "--shards", "2", "--seed", "5", "--format", "json",
        ]) == EXIT_HEALTHY
        run_payload = json.loads(capsys.readouterr().out)
        assert run_payload["state"] == "healthy"
        assert len(run_payload["shards"]) == 2

        assert main([
            "fleet", "status", "--root", str(root),
        ]) == EXIT_HEALTHY
        assert "healthy" in capsys.readouterr().out

        ledger_dir = tmp_path / "ledger"
        assert main([
            "fleet", "merge", "--root", str(root),
            "--record", str(ledger_dir), "--format", "json",
        ]) == EXIT_HEALTHY
        merge_payload = json.loads(capsys.readouterr().out)
        assert merge_payload["state"] == "healthy"
        assert merge_payload["run_id"] is not None
        assert (ledger_dir / "manifest.jsonl").exists()

        assert main(["fleet", "status", "--root", str(tmp_path / "no")]) == 2
