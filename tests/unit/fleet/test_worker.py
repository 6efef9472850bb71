"""Shard worker: spec handling, fault-plan hydration, one real shard."""

import json

import numpy as np
import pytest

from repro.errors import FleetError, ResilienceError
from repro.fleet import read_lease
from repro.fleet.worker import fault_plan_from_spec, load_spec, main, run_shard
from repro.resilience import faults as faults_module
from repro.resilience.checkpoint import read_run


@pytest.fixture(autouse=True)
def _reset_worker_marking():
    """run_shard marks this very process as a fault-eligible worker;
    unmark it afterwards or a later test's kill fault would take pytest
    down (monkeypatch can't do this — its teardown would restore the
    True the test itself set)."""
    yield
    faults_module._IN_WORKER = False
    faults_module.install_plan(None)


class TestFaultPlanFromSpec:
    def test_none_is_disarmed(self):
        assert fault_plan_from_spec(None) is None

    def test_kill_fault_round_trip(self):
        plan = fault_plan_from_spec({
            "seed": 3,
            "faults": [{
                "site": "wafer.die_done",
                "kind": "kill",
                "match": {"die": 2},
                "times": 1,
            }],
        })
        (fault,) = plan.faults
        assert fault.site == "wafer.die_done"
        assert fault.kind == "kill"
        assert fault.match == {"die": 2}
        assert plan.seed == 3

    def test_raise_fault_builds_builtin_error(self):
        plan = fault_plan_from_spec({
            "faults": [{
                "site": "wafer.die_done",
                "kind": "raise",
                "error": "RuntimeError",
                "message": "boom",
            }],
        })
        (fault,) = plan.faults
        assert isinstance(fault.error, RuntimeError)
        assert str(fault.error) == "boom"

    def test_unknown_error_name_rejected(self):
        with pytest.raises(ResilienceError, match="not a builtin"):
            fault_plan_from_spec({
                "faults": [{"site": "x", "kind": "raise", "error": "Nope"}],
            })


class TestLoadSpec:
    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"shard_id": 0}), encoding="utf-8")
        with pytest.raises(FleetError, match="missing"):
            load_spec(path)

    def test_unreadable_spec_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FleetError, match="unreadable"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FleetError, match="unreadable"):
            load_spec(tmp_path / "absent.json")


WAFER = {"diameter_dies": 3, "seed": 5}


def _calibration():
    """The lot's calibration table as the orchestrator ships it."""
    from repro.wafer import WaferModel

    table = WaferModel(**WAFER).die_calibration().to_json()
    return json.loads(json.dumps(table))


def _spec(tmp_path, lo, hi, **extra):
    spec = {
        "shard_id": 0,
        "die_range": [lo, hi],
        "wafer": dict(WAFER),
        "calibration": _calibration(),
        "ledger_root": str(tmp_path / "ledger"),
        "lease_path": str(tmp_path / "lease.json"),
        "result_path": str(tmp_path / "result.npz"),
        "progress_path": str(tmp_path / "progress.jsonl"),
    }
    spec.update(extra)
    return spec


class TestRunShard:
    def test_one_shard_end_to_end(self, tmp_path):
        assert run_shard(_spec(tmp_path, 2, 6)) == 0

        lease = read_lease(tmp_path / "lease.json")
        assert lease.state == "done"
        assert lease.dies_done == 4
        assert lease.run_id == "r0001"

        # The result is the shard's finished run file: its checkpoint,
        # kept, under the reserved run id.
        run = read_run(tmp_path / "result.npz", "shard")
        planes = run.arrays
        means, quality = planes["die_means"], planes["die_quality"]
        assert sorted(planes) == sorted([
            "die_means", "die_sigmas", "die_vgs", "die_codes", "die_quality",
        ])
        assert run.meta["die_range"] == [2, 6]
        assert run.fingerprint["die_range"] == [2, 6]
        assert sorted(run.completed) == [2, 3, 4, 5]
        assert run.run_id == "r0001"
        # Range-sized: only the shard's own dies [2, 6).
        assert means.shape == (4,)
        assert np.isfinite(means).all()
        assert (quality == 1).all()

        manifest = [
            json.loads(line)
            for line in (tmp_path / "ledger" / "manifest.jsonl")
            .read_text(encoding="utf-8").splitlines()
        ]
        assert [m["kind"] for m in manifest] == ["shard"]
        assert manifest[0]["run_id"] == "r0001"
        assert manifest[0]["scalars"]["dies"] == 4.0
        assert manifest[0]["scalars"]["failed_dies"] == 0.0
        assert not {"degraded_cells", "failed_cells"} & set(manifest[0]["scalars"])
        assert manifest[0]["label"] == "shard[2,6)"
        # The range's wafer scalars, one definition for every manifest.
        from repro.wafer import WaferModel, WaferReport

        model = WaferModel(diameter_dies=3, seed=5)
        physics = WaferReport.from_planes(
            model.sites()[2:6], means, planes["die_sigmas"], model.diameter,
            planes["die_quality"],
        ).scalars()
        assert {k: manifest[0]["scalars"][k] for k in physics} == physics

        # Completion deletes the checkpoint (the run is finished).
        checkpoints = tmp_path / "ledger" / "checkpoints"
        assert not checkpoints.exists() or not list(checkpoints.iterdir())

        # Progress stream exists with start/finish brackets.
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "progress.jsonl")
            .read_text(encoding="utf-8").splitlines()
        ]
        assert events[0] == "start"
        assert events[-1] == "finish"

    def test_result_is_the_kept_checkpoint(self, tmp_path, monkeypatch):
        # Plane bytes reach disk only as checkpoint segments; the result
        # is the checkpoint's file under a second name, linked before
        # the manifest line and the checkpoint name's unlink.
        from repro.resilience import checkpoint as checkpoint_module

        written, links = [], []
        real_write_planes = checkpoint_module.write_planes
        real_finish = checkpoint_module.Checkpointer.finish

        def spy(fh, header, planes):
            written.append((header["kind"], len(planes)))
            return real_write_planes(fh, header, planes)

        def finish(checkpointer):
            manifest = tmp_path / "ledger" / "manifest.jsonl"
            links.append((
                checkpointer.path.stat().st_ino,
                (tmp_path / "result.npz").stat().st_ino,
                manifest.read_text(encoding="utf-8").count("\n"),
            ))
            return real_finish(checkpointer)

        monkeypatch.setattr(checkpoint_module, "write_planes", spy)
        monkeypatch.setattr(checkpoint_module.Checkpointer, "finish", finish)
        assert run_shard(_spec(tmp_path, 2, 6)) == 0
        assert written[0] == ("checkpoint", 0)
        assert set(written[1:]) == {("segment", 5)}
        ((checkpoint_inode, result_inode, lines),) = links
        assert checkpoint_inode == result_inode and lines == 1
        run = read_run(tmp_path / "result.npz", "shard")
        assert sorted(run.completed) == [2, 3, 4, 5]

    def test_shard_recorded_before_its_finish_is_recorded_once(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.ledger import RunLedger
        from repro.resilience import Checkpointer

        clean_dir = tmp_path / "clean"
        assert run_shard(_spec(clean_dir, 2, 6)) == 0
        clean = read_run(clean_dir / "result.npz", "shard").arrays
        real_finish = Checkpointer.finish

        def interrupted(checkpointer):
            monkeypatch.setattr(Checkpointer, "finish", real_finish)
            raise RuntimeError("killed before the unlink")

        monkeypatch.setattr(Checkpointer, "finish", interrupted)
        with pytest.raises(RuntimeError, match="before the unlink"):
            run_shard(_spec(tmp_path, 2, 6))
        ledger = RunLedger(tmp_path / "ledger")
        assert [m.run_id for m in ledger.runs()] == ["r0001"]
        assert len(ledger.checkpoint_files()) == 1
        # The respawn resumes the finished checkpoint: no second line.
        assert run_shard(_spec(tmp_path, 2, 6, resume="r0001")) == 0
        assert [m.run_id for m in ledger.runs()] == ["r0001"]
        assert ledger.checkpoint_files() == []
        assert read_lease(tmp_path / "lease.json").state == "done"
        result = read_run(tmp_path / "result.npz", "shard").arrays
        assert sorted(result) == sorted(clean)
        for name, plane in clean.items():
            np.testing.assert_array_equal(result[name], plane)

    def test_manifest_times_the_worker_start(self, tmp_path, capsys):
        import time

        spawned_at = time.time()
        assert run_shard(_spec(tmp_path, 0, 3, spawned_at=spawned_at)) == 0
        (manifest,) = [
            json.loads(line)
            for line in (tmp_path / "ledger" / "manifest.jsonl")
            .read_text(encoding="utf-8").splitlines()
        ]
        extra = manifest["extra"]
        assert 0.0 <= extra["startup_s"] <= time.time() - spawned_at
        assert extra["imports_s"] >= 0.0

        from repro.cli import main as cli_main

        assert cli_main(["runs", "show", "--dir", str(tmp_path / "ledger"),
                         "r0001"]) == 0
        shown = capsys.readouterr().out
        assert "startup_s" in shown and "imports_s" in shown

    def test_resume_under_another_calibration_is_refused(self, tmp_path):
        from repro.errors import CheckpointError

        spec = _spec(tmp_path, 0, 9, faults={
            "faults": [{
                "site": "wafer.die_done",
                "kind": "raise",
                "error": "RuntimeError",
                "match": {"die": 5},
            }],
        })
        with pytest.raises(RuntimeError):
            run_shard(spec)
        other = _calibration()
        other["boundaries"][3] = float(np.nextafter(other["boundaries"][3], 0.0))
        with pytest.raises(CheckpointError, match="another 'calibration'"):
            run_shard(_spec(tmp_path, 0, 9, resume="r0001", calibration=other))
        # The checkpoint stays resumable under the table it recorded.
        assert run_shard(_spec(tmp_path, 0, 9, resume="r0001")) == 0

    def test_manifest_counts_the_failed_dies(self, tmp_path):
        # A steep radial drop on the 1T card leaves 65 of the wafer's
        # 349 printed dies with no in-range cell.
        from repro.units import fF
        from repro.wafer import WaferModel

        wafer = {"diameter_dies": 21, "technology": "1t", "seed": 3,
                 "radial_drop": 0.7 * 4 * fF, "cell_sigma": 4 * fF / 15}
        calibration = WaferModel(**wafer).die_calibration().to_json()
        assert run_shard(_spec(tmp_path, 0, 349, wafer=wafer,
                               calibration=calibration)) == 0
        from repro.obs.ledger import RunLedger

        (manifest,) = RunLedger(tmp_path / "ledger").runs()
        assert manifest.scalars["dies"] == 349.0
        assert manifest.scalars["failed_dies"] == 65.0

    @pytest.mark.parametrize("label, shown", [
        (None, "shard[2,6)"), ("", "shard[2,6)"), ("lot-7", "lot-7"),
    ])
    def test_manifest_label_falls_back_to_the_range(
        self, tmp_path, capsys, label, shown
    ):
        # An unlabeled fleet writes ``"label": null`` into every spec.
        assert run_shard(_spec(tmp_path, 2, 6, label=label)) == 0
        from repro.cli import main as cli_main
        from repro.obs.ledger import RunLedger

        (manifest,) = RunLedger(tmp_path / "ledger").runs()
        assert manifest.label == shown
        assert cli_main(["runs", "show", "--dir", str(tmp_path / "ledger"),
                         "r0001"]) == 0
        assert f"label     : {shown}\n" in capsys.readouterr().out

    def test_resume_of_a_six_plane_checkpoint_is_refused(
        self, tmp_path, monkeypatch
    ):
        # A checkpoint started while die ranges still stored the
        # always-GOOD cell-quality plane is refused by its plane set.
        from repro.errors import CheckpointError
        from repro.wafer import WaferModel

        five_planes = WaferModel.die_planes

        def six_planes(model, count):
            planes = five_planes(model, count)
            planes["die_cell_quality"] = np.zeros(
                planes["die_codes"].shape, dtype=np.uint8
            )
            return planes

        monkeypatch.setattr(WaferModel, "die_planes", six_planes)
        spec = _spec(tmp_path, 0, 9, faults={
            "faults": [{
                "site": "wafer.die_done",
                "kind": "raise",
                "error": "RuntimeError",
                "match": {"die": 5},
            }],
        })
        with pytest.raises(RuntimeError):
            run_shard(spec)
        monkeypatch.setattr(WaferModel, "die_planes", five_planes)
        with pytest.raises(CheckpointError, match="holds planes .*'die_cell_quality'"):
            run_shard(_spec(tmp_path, 0, 9, resume="r0001"))

    def test_failed_shard_flips_lease(self, tmp_path):
        spec = _spec(tmp_path, 0, 9, faults={
            "faults": [{
                "site": "wafer.die_done",
                "kind": "raise",
                "error": "RuntimeError",
                "match": {"die": 1},
            }],
        })
        with pytest.raises(RuntimeError):
            run_shard(spec)
        lease = read_lease(tmp_path / "lease.json")
        assert lease.state == "failed"
        assert not (tmp_path / "result.npz").exists()


class TestMain:
    def test_usage_exit(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_spec_exit(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}", encoding="utf-8")
        assert main([str(path)]) == 2
        assert "error" in capsys.readouterr().err
