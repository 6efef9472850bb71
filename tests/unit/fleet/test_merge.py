"""Lot merge: bit-exactness, idempotence, degradation, and refusals."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import FleetError
from repro.fleet import FleetOrchestrator, merge_lot
from repro.fleet.orchestrator import EXIT_DEGRADED, EXIT_HEALTHY
from repro.measure.config import ScanConfig
from repro.obs.ledger import RunLedger
from repro.resilience.checkpoint import read_run
from repro.resilience.planes import read_planes, write_planes
from repro.wafer import DieQuality, WaferModel

DIAMETER = 3  # 9 dies
SEED = 7

_PLANES = (
    "die_means", "die_sigmas", "die_vgs", "die_codes", "die_quality",
)


@pytest.fixture(scope="module")
def fleet_root(tmp_path_factory):
    """One real, healthy 2-shard fleet run shared by the whole module."""
    root = tmp_path_factory.mktemp("fleet") / "run"
    report = FleetOrchestrator(
        root,
        wafer={"diameter_dies": DIAMETER, "seed": SEED},
        shards=2,
    ).run()
    assert report.state == "healthy"
    return root


@pytest.fixture(scope="module")
def reference():
    """The unsharded ground truth for the same wafer."""
    return WaferModel(diameter_dies=DIAMETER, seed=SEED).measure_dies((0, 9))


def _copy(fleet_root, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(fleet_root, clone)
    # fleet.json records absolute paths: repoint them at the clone so
    # lease/result edits below affect what the merge actually reads.
    path = clone / "fleet.json"
    path.write_text(
        path.read_text(encoding="utf-8").replace(str(fleet_root), str(clone)),
        encoding="utf-8",
    )
    return clone


def _rewrite_result(path, run, planes, rows):
    """Rewrite a shard run file as one segment of ``planes`` at ``rows``."""
    header = {
        "kind": "checkpoint", "segments": "appended", "run_kind": "shard",
        "run_id": run.run_id, "fingerprint": run.fingerprint,
        "total": run.total, "meta": run.meta, "created": run.created,
        "layout": {name: {"shape": list(plane.shape), "dtype": plane.dtype.str}
                   for name, plane in planes.items()},
    }
    segment = {"kind": "segment", "units": run.completed, "rows": rows}
    with open(path, "wb") as fh:
        write_planes(fh, header, {})
        write_planes(fh, segment, {name: p[rows[0]:] for name, p in planes.items()})


def _edit_state(root, mutate):
    path = root / "fleet.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    mutate(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestHealthyMerge:
    def test_bit_exact_with_unsharded_run(self, fleet_root, reference):
        lot = merge_lot(fleet_root)
        assert lot.state == "healthy"
        assert lot.exit_code == EXIT_HEALTHY
        assert lot.total_dies == 9
        assert lot.failed_ranges == []
        for name in _PLANES:
            np.testing.assert_array_equal(
                getattr(lot, name), getattr(reference, name), err_msg=name
            )

    def test_no_cell_quality_plane_is_stored(self, fleet_root):
        lot = merge_lot(fleet_root)
        assert lot.die_cell_quality.dtype == np.uint8
        assert lot.die_cell_quality.shape == lot.die_codes.shape
        assert not lot.die_cell_quality.any()  # all GOOD
        for key in ("s00", "s01"):
            run = read_run(fleet_root / "results" / f"{key}.npz", "shard")
            assert sorted(run.arrays) == sorted(_PLANES)
        _header, arrays = read_planes(fleet_root / "lot.npz", "lot")
        assert sorted(arrays) == sorted(_PLANES)

    def test_shard_provenance_recorded(self, fleet_root):
        lot = merge_lot(fleet_root)
        assert sorted(lot.shard_runs) == ["s00", "s01"]
        assert all(run_id for run_id in lot.shard_runs.values())
        meta = json.loads((fleet_root / "lot.json").read_text(encoding="utf-8"))
        assert meta["state"] == "healthy"
        assert meta["shard_runs"] == lot.shard_runs
        assert meta["scalars"]["measured_fraction"] == 1.0

    def test_idempotent_byte_identical_artifacts(self, fleet_root):
        merge_lot(fleet_root)
        first_npz = (fleet_root / "lot.npz").read_bytes()
        first_json = (fleet_root / "lot.json").read_bytes()
        merge_lot(fleet_root)
        assert (fleet_root / "lot.npz").read_bytes() == first_npz
        assert (fleet_root / "lot.json").read_bytes() == first_json

    def test_ledger_record_kind_lot(self, fleet_root, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        lot = merge_lot(fleet_root, ledger=ledger, label="lot-7")
        assert lot.run_id is not None
        (line,) = (tmp_path / "ledger" / "manifest.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        manifest = json.loads(line)
        assert manifest["kind"] == "lot"
        assert manifest["label"] == "lot-7"
        assert manifest["run_id"] == lot.run_id
        assert manifest["scalars"]["dies"] == 9.0
        assert manifest["extra"]["state"] == "healthy"

    def test_lot_physics_scalars_equal_the_wafer_manifest(
        self, fleet_root, tmp_path
    ):
        lot_ledger = RunLedger(tmp_path / "lot")
        merge_lot(fleet_root, ledger=lot_ledger)
        wafer_ledger = RunLedger(tmp_path / "wafer")
        WaferModel(diameter_dies=DIAMETER, seed=SEED).measure_wafer(
            ScanConfig(ledger=wafer_ledger)
        )
        (lot,), (wafer,) = lot_ledger.runs(), wafer_ledger.runs()
        coverage = {"dies", "failed_dies", "measured_fraction", "shard_respawns"}
        physics = set(lot.scalars) - coverage
        assert {"radial_drop_fF", "zone_centre_fF"} <= physics
        for key in physics:
            assert wafer.scalars.get(key) == lot.scalars[key], key


class TestDegradedMerge:
    def test_failed_shard_becomes_failed_range(
        self, fleet_root, reference, tmp_path
    ):
        clone = _copy(fleet_root, tmp_path)
        (clone / "results" / "s01.npz").unlink()

        def fail_shard_one(payload):
            payload["shard_status"][1]["state"] = "failed"

        _edit_state(clone, fail_shard_one)
        lot = merge_lot(clone)
        assert lot.state == "degraded"
        assert lot.exit_code == EXIT_DEGRADED
        (start, stop) = lot.failed_ranges[0]
        assert (start, stop) == (5, 9)
        assert (lot.die_quality[start:stop] == int(DieQuality.FAILED)).all()
        assert np.isnan(lot.die_means[start:stop]).all()
        assert lot.shard_runs["s01"] is None
        # The surviving shard's planes are untouched by the failure.
        np.testing.assert_array_equal(
            lot.die_means[:start], reference.die_means[:start]
        )
        scalars = lot.scalars
        assert scalars["failed_dies"] == float(stop - start)
        assert scalars["measured_fraction"] == pytest.approx(5 / 9)


def _edit_lease(root, shard, mutate):
    path = root / "leases" / f"s{shard:02d}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    mutate(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _dead_pid():
    """A pid guaranteed dead: a just-reaped child of this process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestStaleRunningFleet:
    """fleet.json frozen at "running" by a crashed orchestrator."""

    def _freeze_running(self, payload):
        payload["state"] = "running"
        for shard in payload["shard_status"]:
            shard["state"] = "running"

    def test_all_workers_finished_merges_healthy(
        self, fleet_root, reference, tmp_path
    ):
        # Orchestrator SIGKILLed after every worker finished: the shard
        # leases say done, so the merge recovers the whole lot.
        clone = _copy(fleet_root, tmp_path)
        _edit_state(clone, self._freeze_running)
        lot = merge_lot(clone)
        assert lot.state == "healthy"
        assert lot.failed_ranges == []
        for name in _PLANES:
            np.testing.assert_array_equal(
                getattr(lot, name), getattr(reference, name), err_msg=name
            )

    def test_dead_worker_range_degrades(self, fleet_root, tmp_path):
        # Shard 1's worker also died mid-range (lease still "running",
        # pid gone): its range merges as FAILED, never partial planes.
        clone = _copy(fleet_root, tmp_path)
        _edit_state(clone, self._freeze_running)
        dead = _dead_pid()
        _edit_lease(clone, 1, lambda p: p.update(state="running", pid=dead))
        lot = merge_lot(clone)
        assert lot.state == "degraded"
        assert lot.failed_ranges == [(5, 9)]


class TestMergeRefusals:
    def test_refuses_running_fleet_with_live_worker(self, fleet_root, tmp_path):
        clone = _copy(fleet_root, tmp_path)

        def shard0_in_flight(payload):
            payload["state"] = "running"
            payload["shard_status"][0]["state"] = "running"

        _edit_state(clone, shard0_in_flight)
        # A live "running" lease: this test process's own pid.
        _edit_lease(
            clone, 0,
            lambda p: p.update(state="running", pid=os.getpid()),
        )
        with pytest.raises(FleetError, match="still running"):
            merge_lot(clone)
        # force merges past the live worker; its range degrades.
        lot = merge_lot(clone, force=True)
        assert lot.state == "degraded"
        assert lot.failed_ranges == [(0, 5)]

    def test_refuses_mixed_config_fingerprints(self, fleet_root, tmp_path):
        clone = _copy(fleet_root, tmp_path)

        def tamper(payload):
            payload["fingerprint"]["config"]["technology"] = "other"

        _edit_state(clone, tamper)
        with pytest.raises(FleetError, match="mixed lots"):
            merge_lot(clone)

    def test_refuses_result_longer_than_its_range(self, fleet_root, tmp_path):
        # A result must hold exactly its shard's [start, stop) slice; a
        # full-length plane (the old layout) is refused, not misplaced.
        clone = _copy(fleet_root, tmp_path)
        path = clone / "results" / "s01.npz"
        run = read_run(path, "shard")
        planes = {
            name: np.concatenate([np.zeros((5, *plane.shape[1:]), plane.dtype), plane])
            for name, plane in run.arrays.items()
        }
        # The same run file, rewritten with wafer-length planes whose
        # one segment fills rows [5, 9).
        _rewrite_result(path, run, planes, [5, 6, 7, 8])
        assert read_run(path, "shard").arrays["die_means"].shape == (9,)
        with pytest.raises(FleetError, match=r"'die_means' has shape \(9,\).*\[5, 9\) holds 4"):
            merge_lot(clone)

    def test_refuses_result_with_the_cell_quality_plane(self, fleet_root, tmp_path):
        # A shard result written before die ranges stopped storing the
        # always-GOOD cell-quality plane is refused by its plane set.
        clone = _copy(fleet_root, tmp_path)
        path = clone / "results" / "s01.npz"
        run = read_run(path, "shard")
        planes = dict(run.arrays)
        planes["die_cell_quality"] = np.zeros(planes["die_codes"].shape, np.uint8)
        _rewrite_result(path, run, planes, list(range(len(planes["die_means"]))))
        with pytest.raises(FleetError, match="result holds planes .*'die_cell_quality'"):
            merge_lot(clone)

    def test_refuses_defective_partition(self, fleet_root, tmp_path):
        clone = _copy(fleet_root, tmp_path)

        def punch_gap(payload):
            payload["partition"][0] = [0, 0, 3]  # leaves [3, 5) uncovered

        _edit_state(clone, punch_gap)
        with pytest.raises(FleetError, match=r"dies \[3, 5\) are claimed by no shard"):
            merge_lot(clone)

    def test_refuses_missing_fleet_json(self, tmp_path):
        with pytest.raises(FleetError):
            merge_lot(tmp_path / "nowhere")
