"""Run ledger: manifests, provenance, artifacts, diffs."""

import json

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.errors import LedgerError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs import (
    MetricsRegistry,
    RunLedger,
    RunManifest,
    config_fingerprint,
    config_hash,
    scan_scalars,
)


def small_array(seed=0, nominal_fF=30.0):
    from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
    from repro.units import fF

    shape = (16, 8)
    capacitance = compose_maps(
        uniform_map(shape, nominal_fF * fF),
        mismatch_map(shape, 0.8 * fF, seed=seed),
    )
    return EDRAMArray(16, 8, macro_rows=8, macro_cols=2, capacitance_map=capacitance)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "runs")


class TestProvenance:
    def test_fingerprint_covers_data_fields_only(self):
        fp = config_fingerprint(ScanConfig(force_engine=True, tier="transient"))
        assert fp == {
            "preflight": False, "force_engine": True,
            "tier": "transient", "technology": "edram",
        }

    def test_hash_stable_and_sensitive(self):
        base = ScanConfig()
        assert config_hash(base) == config_hash(ScanConfig())
        assert config_hash(base) != config_hash(ScanConfig(force_engine=True))

    def test_hash_ignores_observers(self):
        assert config_hash(ScanConfig()) == config_hash(
            ScanConfig(metrics=MetricsRegistry())
        )

    def test_scan_scalars_shape(self):
        result = ArrayScanner(small_array()).scan()
        scalars = scan_scalars(result)
        assert {
            "code_centroid", "code_sigma", "vgs_mean", "vgs_sigma",
            "flip_step_mean", "flip_step_p95", "wall_seconds",
            "cells_per_second",
        } <= set(scalars)
        assert scalars["code_sigma"] >= 0
        assert scalars["cells_per_second"] > 0


class TestManifestRoundTrip:
    def test_to_from_dict(self):
        manifest = RunManifest(
            kind="scan", run_id="r0001", timestamp="t", seed=3,
            scalars={"x": 1.5}, extra={"note": "hi"},
        )
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone == manifest

    def test_malformed_dict_raises(self):
        with pytest.raises(LedgerError, match="malformed"):
            RunManifest.from_dict({"run_id": "r0001"})  # no kind


class TestRecording:
    def test_record_scan_assigns_identity(self, tmp_path):
        from repro.technologies import get

        # The seed comes from the array built with it, the label from
        # the ledger handle.
        result = ArrayScanner(small_array()).scan()
        built = [get("edram").build_array(16, 8, macro_rows=8, seed=seed)
                 for seed in (1, 2)]
        m1 = RunLedger(tmp_path, label="a").record_scan(
            result, ScanConfig(), array=built[0]
        )
        m2 = RunLedger(tmp_path).record_scan(result, ScanConfig(), array=built[1])
        assert [m1.run_id, m2.run_id] == ["r0001", "r0002"]
        assert m1.timestamp and m1.version
        assert m1.config_hash == config_hash(ScanConfig())
        assert m1.seed == 1 and m1.label == "a"
        assert m2.seed == 2 and m2.label == ""
        assert small_array().seed is None  # hand-built

    def test_artifact_round_trip(self, ledger):
        result = ArrayScanner(small_array()).scan()
        manifest = ledger.record_scan(result, ScanConfig())
        loaded = ledger.load_artifact(ledger.get(manifest.run_id))
        assert np.array_equal(loaded.codes, result.codes)

    def test_artifact_optional(self, ledger):
        manifest = ledger.record(RunManifest(kind="scan"))
        assert manifest.artifact is None
        with pytest.raises(LedgerError, match="no scan artifact"):
            ledger.load_artifact(manifest)

    def test_metrics_snapshot_captured(self, ledger):
        metrics = MetricsRegistry()
        config = ScanConfig(metrics=metrics)
        result = ArrayScanner(small_array()).scan(config)
        manifest = ledger.record_scan(result, config)
        assert manifest.metrics is not None
        assert "scan.cells" in manifest.metrics

    def test_scan_via_config_ledger(self, ledger):
        config = ScanConfig(ledger=ledger)
        ArrayScanner(small_array()).scan(config)
        runs = ledger.runs()
        assert len(runs) == 1
        assert runs[0].kind == "scan"
        assert runs[0].cpu_seconds is not None
        assert runs[0].tech == "generic-0.18um-edram"

    def test_wafer_via_config_ledger(self, ledger):
        from repro.wafer import WaferModel

        model = WaferModel(
            diameter_dies=3, die_rows=8, die_cols=4,
            macro_rows=4, macro_cols=2, seed=5,
        )
        model.measure_wafer(config=ScanConfig(ledger=ledger))
        runs = ledger.runs()
        # One wafer manifest; the per-die scans stay unrecorded.
        assert [m.kind for m in runs] == ["wafer"]
        assert runs[0].seed == 5
        assert {
            "cap_mean_fF", "cap_sigma_fF", "radial_centre_fF",
            "radial_drop_fF", "dies",
        } <= set(runs[0].scalars)


class TestOneRecorder:
    """A run's record ends it: id, artifact, manifest line, checkpoint."""

    PLANES = ("codes", "vgs", "tiers", "quality")

    def _assert_planes(self, a, b):
        for plane in self.PLANES:
            np.testing.assert_array_equal(getattr(a, plane), getattr(b, plane))

    def test_scan_checkpointed_in_another_ledger_gets_its_own_id(self, tmp_path):
        from repro.resilience import Checkpointer

        a, b = RunLedger(tmp_path / "a"), RunLedger(tmp_path / "b")
        first = ArrayScanner(small_array(seed=1)).scan(ScanConfig(ledger=a))
        second = ArrayScanner(small_array(seed=2)).scan(
            ScanConfig(ledger=a, checkpoint=Checkpointer(b))
        )
        # B reserved r0001 for the second scan; A's r0001 was taken.
        assert [m.run_id for m in a.runs()] == ["r0001", "r0002"]
        assert (first.run_id, second.run_id) == ("r0001", "r0002")
        self._assert_planes(a.load_artifact(a.get("r0001")), first)
        self._assert_planes(a.load_artifact(a.get("r0002")), second)
        assert b.runs() == [] and b.checkpoint_files() == []

    def test_wafer_checkpointed_in_another_ledger_gets_its_own_id(self, tmp_path):
        from repro.resilience import Checkpointer
        from repro.wafer import WaferModel

        a, b = RunLedger(tmp_path / "a"), RunLedger(tmp_path / "b")
        WaferModel(diameter_dies=3, seed=1).measure_wafer(ScanConfig(ledger=a))
        report = WaferModel(diameter_dies=3, seed=2).measure_wafer(
            ScanConfig(ledger=a, checkpoint=Checkpointer(b))
        )
        assert [(m.run_id, m.seed) for m in a.runs()] == [
            ("r0001", 1), ("r0002", 2),
        ]
        assert report.run_id == "r0002"
        assert b.runs() == [] and b.checkpoint_files() == []

    @pytest.fixture
    def finish_fails_once(self, monkeypatch):
        """``Checkpointer.finish`` is interrupted once: the run is
        recorded, its checkpoint name not yet unlinked."""
        from repro.resilience import Checkpointer

        real_finish = Checkpointer.finish

        def interrupted(checkpointer):
            monkeypatch.setattr(Checkpointer, "finish", real_finish)
            raise KeyboardInterrupt

        monkeypatch.setattr(Checkpointer, "finish", interrupted)

    def test_scan_recorded_before_its_finish_is_recorded_once(
        self, ledger, finish_fails_once
    ):
        from repro.resilience import Checkpointer

        def scan(checkpointer):
            return ArrayScanner(small_array()).scan(
                ScanConfig(ledger=ledger, checkpoint=checkpointer)
            )

        with pytest.raises(KeyboardInterrupt):
            scan(Checkpointer(ledger))
        assert [m.run_id for m in ledger.runs()] == ["r0001"]
        assert len(ledger.checkpoint_files()) == 1
        resumed = scan(Checkpointer(ledger, resume="r0001"))
        assert resumed.run_id == "r0001"
        assert [m.run_id for m in ledger.runs()] == ["r0001"]
        assert ledger.checkpoint_files() == []
        clean = ArrayScanner(small_array()).scan()
        self._assert_planes(ledger.load_artifact(ledger.get("r0001")), clean)
        self._assert_planes(resumed, clean)

    def test_wafer_recorded_before_its_finish_is_recorded_once(
        self, ledger, finish_fails_once
    ):
        from repro.resilience import Checkpointer
        from repro.wafer import WaferModel

        def wafer(checkpointer):
            return WaferModel(diameter_dies=3, seed=4).measure_wafer(
                ScanConfig(ledger=ledger, checkpoint=checkpointer)
            )

        with pytest.raises(KeyboardInterrupt):
            wafer(Checkpointer(ledger))
        (first,) = ledger.runs()
        assert len(ledger.checkpoint_files()) == 1
        resumed = wafer(Checkpointer(ledger, resume="r0001"))
        assert resumed.run_id == "r0001"
        assert ledger.runs() == [first]
        assert ledger.checkpoint_files() == []
        clean = WaferModel(diameter_dies=3, seed=4).measure_wafer()
        assert resumed.dies == clean.dies


class TestReading:
    def test_empty_ledger(self, ledger):
        assert ledger.runs() == []
        assert len(ledger) == 0

    def test_get_unknown_run_raises(self, ledger):
        with pytest.raises(LedgerError, match="no run"):
            ledger.get("r0042")

    def test_corrupt_manifest_line_raises(self, ledger):
        # A malformed line that ends in a newline is foreign data, not
        # a torn append: it raises, and no record appends after it.
        result = ArrayScanner(small_array()).scan()
        ledger.record_scan(result)
        with open(ledger.manifest_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "scan", "run_id"\n')
        with pytest.raises(LedgerError, match=r":2 is not valid JSON"):
            ledger.runs()
        with pytest.raises(LedgerError, match=r":2 is not valid JSON"):
            ledger.record_scan(result)

    def test_latest_and_series(self, ledger):
        result = ArrayScanner(small_array()).scan()
        for _ in range(3):
            ledger.record_scan(result)
        assert [m.run_id for m in ledger.latest(2)] == ["r0002", "r0003"]
        series = ledger.series("code_centroid", kind="scan")
        assert len(series) == 3
        assert series[0][0] == "r0001"

    def test_manifest_line_is_plain_json(self, ledger):
        ledger.record_scan(ArrayScanner(small_array()).scan())
        line = ledger.manifest_path.read_text().splitlines()[0]
        record = json.loads(line)
        assert record["format"] == 1
        assert record["kind"] == "scan"


class TestRunIds:
    """``next_run_id`` reads run ids off line heads, never whole lines."""

    def test_thousand_runs_decode_nothing(self, ledger, monkeypatch):
        ledger.record_scan(ArrayScanner(small_array()).scan())
        line = ledger.manifest_path.read_text(encoding="utf-8")
        with open(ledger.manifest_path, "a", encoding="utf-8") as fh:
            for n in range(2, 1001):
                fh.write(line.replace('"r0001"', f'"r{n:04d}"', 1))

        def no_decoding(*args, **kwargs):
            raise AssertionError("next_run_id decoded a manifest line")

        monkeypatch.setattr("repro.obs.ledger.json.loads", no_decoding)
        with ledger.locked():
            assert ledger.next_run_id() == "r1001"

    def test_reserved_lower_id_recorded_late_still_yields_max_plus_one(
        self, ledger
    ):
        from repro.resilience import Checkpointer

        def reserve():
            checkpointer = Checkpointer(ledger)
            checkpointer.start("scan", {}, {"codes": np.zeros(1)}, total=1)
            checkpointer.mark_done(0)
            return checkpointer

        result = ArrayScanner(small_array()).scan()
        ledger.record_scan(result)  # r0001
        early = reserve()  # r0002
        ledger.record_scan(result)  # r0003
        ledger.record_scan(result)  # r0004
        late = reserve()  # r0005
        ledger.record(RunManifest(kind="scan"), checkpoint=late)
        ledger.record(RunManifest(kind="scan"), checkpoint=early)
        assert [m.run_id for m in ledger.runs()] == [
            "r0001", "r0003", "r0004", "r0005", "r0002",
        ]
        with ledger.locked():
            assert ledger.next_run_id() == "r0006"

    def test_torn_last_line_is_no_record_for_runs_or_ids(self, ledger):
        ledger.record_scan(ArrayScanner(small_array()).scan())
        line = ledger.manifest_path.read_text(encoding="utf-8")
        with open(ledger.manifest_path, "a", encoding="utf-8") as fh:
            fh.write(line.replace('"r0001"', '"r0002"')[: len(line) // 2])
        assert [m.run_id for m in ledger.runs()] == ["r0001"]
        with ledger.locked():
            assert ledger.next_run_id() == "r0002"

    def test_next_record_cuts_a_torn_last_line(self, ledger):
        result = ArrayScanner(small_array()).scan()
        ledger.record_scan(result)
        with ledger.locked():
            assert ledger.next_run_id() == "r0002"  # caches the prefix
        line = ledger.manifest_path.read_text(encoding="utf-8")
        torn = line.replace('"r0001"', '"r0009"')[:-1]  # all but "\n"
        with open(ledger.manifest_path, "a", encoding="utf-8") as fh:
            fh.write(torn)
        assert ledger.record_scan(result).run_id == "r0002"
        lines = ledger.manifest_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(text)["run_id"] for text in lines] == ["r0001", "r0002"]
        assert [m.run_id for m in ledger.runs()] == ["r0001", "r0002"]
        with ledger.locked():
            assert ledger.next_run_id() == "r0003"

    def test_scan_manifest_stats_are_the_scan_stats(self, ledger):
        # An engine scan's per-macro time lives in its spans, not its
        # stats: the manifest line carries the stats whole.
        result = ArrayScanner(small_array()).scan(ScanConfig(force_engine=True))
        manifest = ledger.record_scan(result)
        assert manifest.stats == result.stats.to_dict()
        (line,) = ledger.manifest_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["stats"] == result.stats.to_dict()
        assert manifest.stats["engine_cells"] == result.stats.total_cells


class TestDiff:
    def test_identical_runs_diff_clean(self, ledger):
        result = ArrayScanner(small_array(seed=7)).scan()
        ledger.record_scan(result, ScanConfig())
        ledger.record_scan(result, ScanConfig())
        diff = ledger.diff("r0001", "r0002")
        assert diff.config_changes == {}
        assert diff.bitmap["cells_changed"] == 0
        assert "identical" in diff.format_text()

    def test_config_change_surfaces(self, ledger):
        result = ArrayScanner(small_array()).scan()
        ledger.record_scan(result, ScanConfig())
        ledger.record_scan(result, ScanConfig(force_engine=True))
        diff = ledger.diff("r0001", "r0002")
        assert diff.config_changes == {"force_engine": (False, True)}

    def test_bitmap_delta_detects_shift(self, ledger):
        from repro.calibration.design import design_structure

        # The designed structure's code scale resolves a 4 fF process
        # shift (the default reference design is coarser).
        a, b = small_array(nominal_fF=30.0), small_array(nominal_fF=26.0)
        structure = design_structure(a.tech, 8, 2, bitline_rows=16)
        ledger.record_scan(ArrayScanner(a, structure).scan())
        ledger.record_scan(ArrayScanner(b, structure).scan())
        diff = ledger.diff("r0001", "r0002")
        assert diff.bitmap["cells_changed"] > 0
        assert diff.bitmap["mean_code_delta"] < 0  # lower caps, lower codes
        assert diff.scalar_deltas["code_centroid"][2] < 0

    def test_missing_artifact_reason(self, ledger):
        result = ArrayScanner(small_array()).scan()
        ledger.record(RunManifest(kind="scan"))
        ledger.record_scan(result)
        diff = ledger.diff("r0001", "r0002")
        assert "reason" in diff.bitmap

    def test_to_dict_shape(self, ledger):
        result = ArrayScanner(small_array()).scan()
        ledger.record_scan(result)
        ledger.record_scan(result)
        d = ledger.diff("r0001", "r0002").to_dict()
        assert d["a"] == "r0001" and d["b"] == "r0002"
        assert {"config_changes", "scalar_deltas", "metric_deltas", "bitmap"} <= set(d)


# ---------------------------------------------------------------------------
# Advisory locking
# ---------------------------------------------------------------------------


def test_locked_times_out_with_clear_error(tmp_path):
    import pytest

    from repro.errors import LedgerError

    ledger = RunLedger(tmp_path)
    with ledger.locked():
        # flock is per open file description, so a second acquisition
        # through a fresh fd contends even within one process.
        with pytest.raises(LedgerError, match="timed out waiting for ledger lock"):
            with ledger.locked(timeout=0.2):
                pass  # pragma: no cover - never entered


def test_locked_serialises_concurrent_run_id_allocation(tmp_path):
    # Two processes racing to append must never claim the same id.
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()

    def allocate():
        ledger = RunLedger(tmp_path)
        barrier.wait()
        for _ in range(5):
            with ledger.locked():
                run_id = ledger.next_run_id()
                ledger.checkpoint_dir.mkdir(parents=True, exist_ok=True)
                (ledger.checkpoint_dir / f"{run_id}.npz").write_bytes(b"x")
            queue.put(run_id)

    procs = [ctx.Process(target=allocate) for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(30)
    ids = [queue.get(timeout=5) for _ in range(10)]
    assert len(set(ids)) == 10  # no id claimed twice
