"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_design_command(capsys):
    assert main(["design", "--rows", "16", "--macro-rows", "8", "--cols", "4"]) == 0
    out = capsys.readouterr().out
    assert "C_REF" in out
    assert "DAC step" in out


def test_abacus_command(capsys):
    assert main(["abacus", "--rows", "8", "--macro-rows", "8", "--cols", "4"]) == 0
    out = capsys.readouterr().out
    assert "over range" in out
    assert "ambiguous" in out


def test_scan_command_healthy(capsys):
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8", "--healthy",
    ]) == 0
    out = capsys.readouterr().out
    assert "scanned 32 cells" in out


def test_scan_command_saves(tmp_path, capsys):
    target = tmp_path / "scan.npz"
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--save", str(target),
    ]) == 0
    assert target.exists()
    from repro.io import load_scan

    loaded = load_scan(target)
    assert loaded.codes.shape == (8, 4)


def test_scan_command_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.jsonl"
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--trace", str(trace_path), "--metrics",
        "--metrics-out", str(metrics_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out
    assert "scan.cells" in out
    assert trace_path.exists() and metrics_path.exists()

    from repro.obs import load_trace, summarize_trace

    spans = load_trace(str(trace_path))
    summary = summarize_trace(spans)
    # The injected bridge routes at least one macro through the engine,
    # so the trace shows the full five-phase tree under that macro.
    assert summary.covers(
        "scan", "macro", "phase:discharge", "phase:charge",
        "phase:isolate", "phase:share", "phase:convert",
    )
    by_id = {s.span_id: s for s in spans}
    phases = [s for s in spans if s.name.startswith("phase:")]
    assert len(phases) % 5 == 0
    assert all(by_id[s.parent_id].name == "macro" for s in phases)


def test_scan_command_json(capsys):
    import json

    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"] == 32
    assert payload["geometry"]["rows"] == 8
    assert payload["stats"]["total_cells"] == 32
    assert sum(payload["code_histogram"].values()) == 32


def test_scan_command_force_engine(capsys):
    assert main([
        "scan", "--rows", "4", "--cols", "4", "--macro-rows", "4",
        "--macro-cols", "2", "--healthy", "--force-engine",
    ]) == 0
    assert "engine" in capsys.readouterr().out


def test_trace_command(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8", "--healthy",
        "--trace", str(trace_path),
    ])
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "scan" in out
    assert "max depth" in out


def test_trace_command_json(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.jsonl"
    main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8", "--healthy",
        "--trace", str(trace_path),
    ])
    capsys.readouterr()
    assert main(["trace", str(trace_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_spans"] >= 1
    # A healthy traced scan stays on the batched-kernel fast path.
    assert {row["name"] for row in payload["spans"]} >= {"scan", "kernel"}


def test_diagnose_command_json(capsys):
    import json

    assert main([
        "diagnose", "--rows", "16", "--cols", "8", "--macro-rows", "8", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "verdicts" in payload
    assert "repair" in payload
    assert isinstance(payload["repair"]["success"], bool)


def test_diagnose_command(capsys):
    assert main(["diagnose", "--rows", "16", "--cols", "8", "--macro-rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "repair" in out
    assert "findings:" in out


def test_wafer_command(capsys):
    assert main(["wafer", "--diameter", "5"]) == 0
    out = capsys.readouterr().out
    assert "wafer mean" in out
    assert "radial profile" in out


def test_default_ledger_dir_matches_library():
    from repro.cli import _DEFAULT_LEDGER_DIR
    from repro.obs import DEFAULT_LEDGER_DIR

    assert _DEFAULT_LEDGER_DIR == DEFAULT_LEDGER_DIR


def test_scan_json_round_trip_schema(capsys):
    """The --json payload parses and carries the documented keys."""
    import json

    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--healthy", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {
        "geometry", "cells", "num_steps", "mean_fF", "sigma_fF",
        "code_histogram", "stats", "metrics", "trace", "saved",
        "run_id", "ledger",
    } <= set(payload)
    assert payload["run_id"] is None  # not recorded
    assert payload["geometry"]["macros"] == 2  # (8/8 rows) x (4/2 cols)
    assert payload["stats"]["wall_seconds"] > 0
    assert isinstance(payload["mean_fF"], float)


def test_diagnose_json_round_trip_schema(capsys):
    import json

    assert main([
        "diagnose", "--rows", "16", "--cols", "8", "--macro-rows", "8", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {
        "digital_fails", "verdicts", "findings", "process", "repair",
        "scan_stats", "run_id", "ledger",
    } <= set(payload)
    assert isinstance(payload["digital_fails"], int)
    assert sum(payload["verdicts"].values()) == 16 * 8


def _record_scan(tmp_path, seed, nominal=None, extra=()):
    args = [
        "scan", "--rows", "16", "--cols", "8", "--macro-rows", "8",
        "--healthy", "--seed", str(seed),
        "--record", str(tmp_path / "runs"), *extra,
    ]
    if nominal is not None:
        args += ["--nominal-ff", str(nominal)]
    return main(args)


def test_scan_record_and_runs_verbs(tmp_path, capsys):
    import json

    assert _record_scan(tmp_path, seed=1, extra=("--label", "base")) == 0
    assert _record_scan(tmp_path, seed=2) == 0
    out = capsys.readouterr().out
    assert "recorded as r0001" in out

    assert main(["runs", "list", "--dir", str(tmp_path / "runs")]) == 0
    listing = capsys.readouterr().out
    assert "r0001" in listing and "r0002" in listing and "base" in listing

    assert main(["runs", "show", "--dir", str(tmp_path / "runs"),
                 "r0001", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["run_id"] == "r0001"
    assert manifest["seed"] == 1
    assert "cap_mean_fF" in manifest["scalars"]

    assert main(["runs", "diff", "--dir", str(tmp_path / "runs"),
                 "r0001", "r0002"]) == 0
    diff_out = capsys.readouterr().out
    assert "runs diff: r0001 -> r0002" in diff_out
    assert "bitmap:" in diff_out


def test_recorded_scan_prints_from_the_bitmap_it_was_recorded_with(
    tmp_path, capsys, monkeypatch
):
    import json

    from repro.bitmap.analog import AnalogBitmap

    built = []
    init = AnalogBitmap.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AnalogBitmap, "__init__", counting_init)
    assert _record_scan(tmp_path, seed=1, extra=("--json",)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(built) == 1  # the driver's, for the manifest scalars
    manifest = json.loads(
        (tmp_path / "runs" / "manifest.jsonl").read_text().splitlines()[0]
    )
    assert payload["mean_fF"] == manifest["scalars"]["cap_mean_fF"]
    assert payload["sigma_fF"] == manifest["scalars"]["cap_sigma_fF"]


def test_runs_check_gates_on_drift(tmp_path, capsys):
    # Clean pair (same process, different seeds): gate passes.
    assert _record_scan(tmp_path, seed=1) == 0
    assert _record_scan(tmp_path, seed=2) == 0
    capsys.readouterr()
    assert main(["runs", "check", "--dir", str(tmp_path / "runs")]) == 0
    # Injected 4 fF process drift: gate fails.
    assert _record_scan(tmp_path, seed=3, nominal=26.0) == 0
    capsys.readouterr()
    assert main(["runs", "check", "--dir", str(tmp_path / "runs")]) == 1
    assert "DRF" in capsys.readouterr().out


def test_runs_show_unknown_id_fails_cleanly(tmp_path, capsys):
    assert _record_scan(tmp_path, seed=1) == 0
    capsys.readouterr()
    assert main(["runs", "show", "--dir", str(tmp_path / "runs"), "r0099"]) == 2
    assert "no run" in capsys.readouterr().err


def test_runs_list_empty_ledger(tmp_path, capsys):
    assert main(["runs", "list", "--dir", str(tmp_path / "void")]) == 0
    assert "no recorded runs" in capsys.readouterr().out


def test_scan_progress_jsonl(tmp_path, capsys):
    import json

    target = tmp_path / "progress.jsonl"
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--healthy", "--progress-jsonl", str(target),
    ]) == 0
    events = [json.loads(line) for line in target.read_text().splitlines()]
    assert events[0]["event"] == "start"
    assert events[-1]["event"] == "finish"
    assert events[-1]["done"] == 32
    assert events[-1]["units"] == "cells"


def test_wafer_record(tmp_path, capsys):
    assert main([
        "wafer", "--diameter", "3", "--record", str(tmp_path / "runs"),
        "--label", "lot-7",
    ]) == 0
    assert "recorded as r0001" in capsys.readouterr().out
    from repro.obs import RunLedger

    runs = RunLedger(tmp_path / "runs").runs()
    assert [m.kind for m in runs] == ["wafer"]
    assert runs[0].label == "lot-7"


# ---------------------------------------------------------------------------
# Error paths: broken ledgers and artifacts must fail like tools
# ---------------------------------------------------------------------------


def test_runs_diff_unknown_id_exits_2(tmp_path, capsys):
    assert _record_scan(tmp_path, seed=1) == 0
    capsys.readouterr()
    assert main(["runs", "diff", "--dir", str(tmp_path / "runs"),
                 "r0001", "r0077"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no run 'r0077'" in err
    assert "Traceback" not in err


def test_runs_diff_corrupted_artifact_reports_reason(tmp_path, capsys):
    assert _record_scan(tmp_path, seed=1) == 0
    assert _record_scan(tmp_path, seed=2) == 0
    capsys.readouterr()
    # Truncate run 2's scan artifact mid-file: the bitmap delta must
    # degrade to a named reason, not a zipfile traceback.
    artifacts = sorted((tmp_path / "runs" / "artifacts").glob("*.npz"))
    artifacts[-1].write_bytes(artifacts[-1].read_bytes()[:64])
    assert main(["runs", "diff", "--dir", str(tmp_path / "runs"),
                 "r0001", "r0002"]) == 0
    out = capsys.readouterr().out
    assert "unreadable" in out
    assert "Traceback" not in out


def test_runs_diff_pre_change_artifact_names_its_format(tmp_path, capsys):
    import json

    import numpy as np

    assert _record_scan(tmp_path, seed=1) == 0
    assert _record_scan(tmp_path, seed=2) == 0
    capsys.readouterr()
    # A scan artifact as formats 1 and 2 wrote it: a compressed npz.
    artifacts = sorted((tmp_path / "runs" / "artifacts").glob("*.npz"))
    np.savez_compressed(artifacts[-1], format=np.array(2))
    assert main(["runs", "diff", "--dir", str(tmp_path / "runs"),
                 "--format", "json", "r0001", "r0002"]) == 0
    reason = json.loads(capsys.readouterr().out)["bitmap"]["reason"]
    assert "a pre-change .npz" in reason
    assert "plane container format 3" in reason


def test_runs_diff_truncated_manifest_exits_2(tmp_path, capsys):
    assert _record_scan(tmp_path, seed=1) == 0
    capsys.readouterr()
    manifest = tmp_path / "runs" / "manifest.jsonl"
    # Cut, then terminated: a whole malformed line, not a torn append
    # (which the ledger skips).
    manifest.write_text(manifest.read_text()[:40] + "\n")
    assert main(["runs", "diff", "--dir", str(tmp_path / "runs"),
                 "r0001", "r0001"]) == 2
    err = capsys.readouterr().err
    assert ":1 is not valid JSON" in err
    assert "Traceback" not in err


def test_runs_check_truncated_manifest_exits_2(tmp_path, capsys):
    assert _record_scan(tmp_path, seed=1) == 0
    capsys.readouterr()
    manifest = tmp_path / "runs" / "manifest.jsonl"
    manifest.write_text(manifest.read_text()[:40] + "\n")
    assert main(["runs", "check", "--dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and ":1 is not valid JSON" in err


# ---------------------------------------------------------------------------
# Checkpoint/resume verbs
# ---------------------------------------------------------------------------


def test_scan_resume_unknown_id_exits_2(tmp_path, capsys):
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--checkpoint", str(tmp_path / "runs"), "--resume", "r0042",
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "r0042" in err
    assert "Traceback" not in err


def test_runs_checkpoints_empty(tmp_path, capsys):
    assert main(["runs", "checkpoints", "--dir", str(tmp_path / "runs")]) == 0
    assert "no unfinished runs" in capsys.readouterr().out


def test_checkpointed_scan_completes_and_cleans_up(tmp_path, capsys):
    ledger_dir = tmp_path / "runs"
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8", "--healthy",
        "--record", str(ledger_dir), "--checkpoint", str(ledger_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "recorded as r0001" in out
    # A completed run leaves no checkpoint behind.
    assert main(["runs", "checkpoints", "--dir", str(ledger_dir)]) == 0
    assert "no unfinished runs" in capsys.readouterr().out


def test_preflight_scan_resumes_with_the_printed_hint(tmp_path, capsys):
    # An interrupted --preflight scan prints a resume hint that must
    # rebuild the same config: preflight is part of the checkpoint's
    # fingerprint, so the hint has to restore it from the checkpoint.
    import numpy as np

    from repro.io import load_scan
    from repro.resilience import Fault, FaultPlan, inject

    geometry = ["--rows", "16", "--cols", "4", "--macro-rows", "4",
                "--seed", "3"]
    ck_dir = tmp_path / "runs"
    interrupt = Fault("scan.macro_done", error=KeyboardInterrupt(),
                      after=3, times=1)
    with inject(FaultPlan([interrupt])):
        assert main(["scan", *geometry, "--preflight",
                     "--checkpoint", str(ck_dir)]) == 130
    err = capsys.readouterr().err
    hint = err.split("resume with: ", 1)[1].splitlines()[0]
    assert hint == f"repro scan --resume r0001 --checkpoint {ck_dir}"

    resumed_path = tmp_path / "resumed.npz"
    assert main([*hint.split()[1:], "--save", str(resumed_path)]) == 0
    plain_path = tmp_path / "plain.npz"
    assert main(["scan", *geometry, "--save", str(plain_path)]) == 0
    resumed, plain = load_scan(resumed_path), load_scan(plain_path)
    for plane in ("codes", "vgs", "tiers", "quality"):
        np.testing.assert_array_equal(getattr(resumed, plane), getattr(plain, plane))
    assert main(["runs", "checkpoints", "--dir", str(ck_dir)]) == 0
    assert "no unfinished runs" in capsys.readouterr().out


def test_interrupted_wafer_resumes_with_the_listed_hint(tmp_path, capsys):
    from repro.resilience import Fault, FaultPlan, inject

    ck_dir = tmp_path / "runs"
    wafer = ["wafer", "--diameter", "13", "--seed", "3"]
    assert main(wafer) == 0
    plain = capsys.readouterr().out
    interrupt = Fault("wafer.die_done", error=KeyboardInterrupt(),
                      after=70, times=1)
    with inject(FaultPlan([interrupt])):
        assert main([*wafer, "--checkpoint", str(ck_dir)]) == 130
    capsys.readouterr()
    assert main(["runs", "checkpoints", "--dir", str(ck_dir)]) == 0
    listed = capsys.readouterr().out
    # The d13 wafer's 137 dies land in chunks of 64, each marked done
    # as one segment after all its dies' events: interrupted at die 70,
    # the checkpoint holds the first chunk.
    assert "r0001  shard  64/137 units" in listed
    hint = listed.split("resume with `", 1)[1].split("`", 1)[0]
    assert hint == f"repro wafer --resume r0001 --checkpoint {ck_dir}"
    assert main(hint.split()[1:]) == 0
    assert capsys.readouterr().out == plain
    assert main(["runs", "checkpoints", "--dir", str(ck_dir)]) == 0
    assert "no unfinished runs" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["scan", "--rows", "16", "--cols", "8", "--macro-rows", "8"],
    ["wafer", "--diameter", "5"],
], ids=["scan", "wafer"])
def test_failed_manifest_append_keeps_the_recorded_runs_checkpoint(
    command, tmp_path, capsys
):
    # The driver records, then finishes the checkpoint: a manifest line
    # that fails leaves the measured run resumable, never lost.
    import numpy as np

    from repro.obs import RunLedger
    from repro.resilience import Fault, FaultPlan, inject

    ledger_dir = str(tmp_path / "runs")
    record = ["--record", ledger_dir, "--checkpoint", ledger_dir]
    disk_full = Fault("durable.append", error=OSError("disk full"),
                      match={"target": "manifest.jsonl"})
    with inject(FaultPlan([disk_full])), pytest.raises(OSError, match="disk full"):
        main([*command, *record])
    ledger = RunLedger(ledger_dir)
    assert ledger.runs() == []
    capsys.readouterr()
    assert main(["runs", "checkpoints", "--dir", ledger_dir]) == 0
    listed = capsys.readouterr().out
    assert listed.startswith("r0001  ")
    assert f"--resume r0001 --checkpoint {ledger_dir}" in listed

    assert main([command[0], "--resume", "r0001", *record]) == 0
    assert "recorded as r0001" in capsys.readouterr().out
    (manifest,) = ledger.runs()
    assert ledger.checkpoint_files() == []
    plain_ledger = RunLedger(tmp_path / "plain")
    assert main([*command, "--record", str(plain_ledger.root)]) == 0
    (plain,) = plain_ledger.runs()
    timing = {"wall_seconds", "cells_per_second", "dies_per_second"}
    assert {k: v for k, v in manifest.scalars.items() if k not in timing} == {
        k: v for k, v in plain.scalars.items() if k not in timing
    }
    if command[0] == "scan":
        resumed = ledger.load_artifact(manifest)
        clean = plain_ledger.load_artifact(plain)
        for plane in ("codes", "vgs", "tiers", "quality"):
            np.testing.assert_array_equal(
                getattr(resumed, plane), getattr(clean, plane)
            )


def test_tech_list_command(capsys):
    assert main(["tech", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("edram", "fecap", "1t"):
        assert name in out
    assert "corners" in out
    assert "tt=" in out


def test_tech_list_json(capsys):
    import json

    assert main(["tech", "list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in payload] == ["edram", "fecap", "1t"]
    assert all("corners" in entry for entry in payload)


@pytest.mark.parametrize("tech", ["edram", "fecap", "1t"])
def test_scan_command_per_technology(tech, capsys):
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--tech", tech,
    ]) == 0
    assert "scanned 32 cells" in capsys.readouterr().out


def test_scan_rejects_unknown_tech():
    with pytest.raises(SystemExit):
        build_parser().parse_args([
            "scan", "--rows", "8", "--cols", "4", "--tech", "mram",
        ])


def test_scan_record_fecap_carries_disturb_scalars(tmp_path, capsys):
    ledger_dir = tmp_path / "runs"
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--tech", "fecap", "--record", str(ledger_dir),
    ]) == 0
    capsys.readouterr()
    from repro.obs import RunLedger

    manifest = RunLedger(ledger_dir).runs()[0]
    assert manifest.config["technology"] == "fecap"


@pytest.mark.parametrize("tech", ["fecap", "1t"])
def test_scan_record_carries_the_api_scalar_keys(tech, tmp_path, capsys):
    # The scan driver is the one recorder: a CLI scan and a
    # ScanConfig(ledger=...) scan chart the same scalars, the backend's
    # and the calibrated bitmap's included.
    from repro.measure.config import ScanConfig
    from repro.measure.scan import ArrayScanner
    from repro.obs import RunLedger
    from repro.technologies import get

    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--tech", tech, "--record", str(tmp_path / "cli"),
    ]) == 0
    capsys.readouterr()
    (cli,) = RunLedger(tmp_path / "cli").runs()
    backend = get(tech)
    array = backend.build_array(8, 4, macro_rows=8, seed=0, with_defects=True)
    api_ledger = RunLedger(tmp_path / "api")
    ArrayScanner(array, backend.design_structure(array, bitline_rows=8)).scan(
        ScanConfig(technology=tech, ledger=api_ledger)
    )
    (api,) = api_ledger.runs()
    extra = set(backend.extra_scalars(array))
    assert extra and extra <= set(api.scalars)
    assert set(cli.scalars) == set(api.scalars)
    bitmap = ("cap_mean_fF", "cap_sigma_fF", "in_range_fraction")
    assert [cli.scalars[k] for k in bitmap] == [api.scalars[k] for k in bitmap]


def test_runs_checkpoints_names_the_fleet_for_a_shard_checkpoint(tmp_path, capsys):
    from repro.measure.config import ScanConfig
    from repro.resilience import Checkpointer, Fault, FaultPlan, inject
    from repro.wafer import WaferModel

    # The orchestrator's layout: <root>/shards/sNN is the shard ledger.
    shard_dir = tmp_path / "fleet" / "shards" / "s01"
    checkpointer = Checkpointer(shard_dir, meta={"shard_id": 1, "die_range": [2, 6]})
    interrupt = Fault("wafer.die_done", error=KeyboardInterrupt(), after=1)
    with inject(FaultPlan([interrupt])), pytest.raises(KeyboardInterrupt):
        WaferModel(diameter_dies=3, seed=5).measure_dies(
            (2, 6), ScanConfig(checkpoint=checkpointer)
        )
    assert main(["runs", "checkpoints", "--dir", str(shard_dir)]) == 0
    listed = capsys.readouterr().out
    # The range's 4 dies are one chunk, marked done after all their
    # events: interrupted at the second, the checkpoint holds none.
    assert "r0001  shard  0/4" in listed
    assert "repro wafer" not in listed
    hint = listed.split("resume with `", 1)[1].split("`", 1)[0]
    assert hint == f"repro fleet run --root {tmp_path / 'fleet'}"


def test_diagnose_command_per_technology(capsys):
    assert main([
        "diagnose", "--rows", "8", "--cols", "4", "--macro-rows", "8",
        "--tech", "fecap",
    ]) == 0
    assert "verdicts" in capsys.readouterr().out


def test_wafer_command_per_technology(capsys):
    assert main(["wafer", "--diameter", "3", "--tech", "1t"]) == 0
    assert "wafer mean" in capsys.readouterr().out


def _write_trace(tmp_path, name="trace.jsonl"):
    trace_path = tmp_path / name
    assert main([
        "scan", "--rows", "8", "--cols", "4", "--macro-rows", "4",
        "--healthy", "--trace", str(trace_path),
    ]) == 0
    return trace_path


def test_trace_command_merges_multiple_paths(tmp_path, capsys):
    import json

    first = _write_trace(tmp_path, "a.jsonl")
    second = _write_trace(tmp_path, "b.jsonl")
    capsys.readouterr()
    assert main(["trace", str(first), str(second), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {row["name"]: row["count"] for row in payload["spans"]}
    assert names["scan"] == 2  # one root per merged file


def test_trace_command_missing_path_names_file(tmp_path, capsys):
    from repro.errors import ObservabilityError

    present = _write_trace(tmp_path)
    capsys.readouterr()
    with pytest.raises(ObservabilityError, match="absent.jsonl"):
        main(["trace", str(present), str(tmp_path / "absent.jsonl")])


def test_trace_timeline_text(tmp_path, capsys):
    trace_path = _write_trace(tmp_path)
    capsys.readouterr()
    assert main(["trace", str(trace_path), "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "parent" in out and "1 lanes" in out


def test_trace_timeline_json(tmp_path, capsys):
    import json

    trace_path = _write_trace(tmp_path)
    capsys.readouterr()
    assert main(["trace", str(trace_path), "--timeline", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lanes = {lane["lane"] for lane in payload["lanes"]}
    # A scan runs in one process: one lane (worker lanes come from
    # traces merged with Tracer.merge(worker_id=...)).
    assert lanes == {"parent"}
    assert payload["duration_seconds"] > 0.0
