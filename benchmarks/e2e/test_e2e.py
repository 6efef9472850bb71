"""Tests of the end-to-end benchmark itself, not of the program it measures.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run
from workloads import WORKLOADS

BENCHMARK = run.load_benchmark()

#: Sizes at which every op takes well under a second.
TINY = {
    "scan-1m": {"rows": 32, "cols": 16},
    "diagnose-128x64": {"rows": 64, "cols": 32},
    "scan-ckpt": {"rows": 32, "cols": 16},
    "wafer-d41": {"diameter": 7},
    "fleet-d41": {"diameter": 7},
}

#: Layer metrics each workload must reach: proof that the wrappers sit
#: where that workload's callers look the names up.
EXERCISED = {
    "scan-1m": ["kernel.s", "convert.s", "scan.self_s", "scan.init_s",
                "bitmap.s", "setup.edram.build_s", "setup.calibration.s"],
    "diagnose-128x64": ["calibration.s", "march.s", "engine.s", "diagnosis.s",
                        "scan.engine_cell_frac"],
    "scan-ckpt": ["checkpoint.save_s", "checkpoint.bytes", "ledger.append_s",
                  "scan.macro_cf_calls", "convert.calls"],
    "wafer-d41": ["fabricate.s", "edram.build_s", "kernel.s", "bitmap.s",
                  "wafer.self_s"],
    "fleet-d41": ["fleet.run_s", "fleet.shard_s", "fleet.fixed_s",
                  "fleet.merge_s"],
}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS) == set(TINY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_checks(name, tmp_path):
    result = run.run_workload(name, 7, 0.0, True, work_dir=tmp_path,
                              sizes=TINY[name])
    assert result["correct"], result["problems"]
    assert (result["attempted"], result["failed"]) == (run.MIN_OPS, 0)
    assert result["traced_ops"][:2] == [True, False]

    for trace, section in ((True, "per_layer"), (False, "end_to_end")):
        line = run.contract_line({**result, "trace": trace}, BENCHMARK)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        metrics = line["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == _units(section)
        assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert all(result["metrics"][m] > 0 for m in _units("end_to_end"))
    missing = [m for m in EXERCISED[name] if not result["layers"][m] > 0]
    assert not missing, f"{name} never reached {missing}"


def test_fleet_lot_digest_equals_wafer_digest(tmp_path):
    wafer, fleet = (
        run.run_workload(name, 3, 0.0, False, work_dir=tmp_path / name,
                         sizes=TINY[name])
        for name in ("wafer-d41", "fleet-d41")
    )
    assert wafer["correct"] and fleet["correct"]
    assert wafer["digest"] == fleet["digest"]


def test_run_fails_without_the_program(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark must fail."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "wafer-d41",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_nested_wrapped_calls():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    recorder = layers.Recorder(clock=lambda: now[0])
    inner = recorder.wrap("inner", lambda: tick(2.0))

    def body():
        tick(1.0)
        inner()
        tick(3.0)
        inner()

    outer = recorder.wrap("outer", body)
    outer()
    inner()
    assert dict(recorder.calls) == {"outer": 1, "inner": 3}
    assert recorder.inclusive["outer"] == 8.0
    assert recorder.self_seconds["outer"] == 4.0
    assert recorder.inclusive["inner"] == recorder.self_seconds["inner"] == 6.0
    assert recorder.top == 10.0


def test_raising_call_is_recorded_and_hook_sees_results():
    now = [0.0]
    recorder = layers.Recorder(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise ValueError("boom")

    seen = []
    hooked = recorder.wrap("hooked", lambda x: x * 2,
                           lambda values, args, result: seen.append((args, result)))
    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert hooked(21) == 42
    assert seen == [((21,), 42)]
    assert recorder.calls["boom"] == 1 and recorder.top == 1.0
    assert not recorder._stack


def test_uninstall_restores_every_original():
    import repro.calibration.abacus as abacus
    import repro.measure.scan as scan

    before = (scan.closed_form_vgs_plane, scan.ArrayScanner.__dict__["scan"],
              abacus.Abacus.__dict__["analytic"])
    recorder = layers.Recorder()
    recorder.install()
    try:
        assert scan.closed_form_vgs_plane is not before[0]
        assert isinstance(abacus.Abacus.__dict__["analytic"], classmethod)
    finally:
        recorder.uninstall()
    after = (scan.closed_form_vgs_plane, scan.ArrayScanner.__dict__["scan"],
             abacus.Abacus.__dict__["analytic"])
    assert after == before


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------


def _runs(op_s=0.1, spread=0.0, digest="d", n=10):
    """Synthetic untraced results of one workload, seeds 0..n-1.

    Pair ``i`` of two such sets alternates which side started first.
    """
    runs = []
    for i in range(n):
        seconds = op_s * (1 + spread * ((i % 3) - 1))
        runs.append({
            "workload": "w", "seed": i, "trace": False, "correct": True,
            "digest": digest, "started": 10.0 * i + (i + (digest == "b")) % 2,
            "metrics": {"cells_per_s": 1000 / seconds, "op_p50_s": seconds,
                        "setup_s": 1.0, "peak_rss_mb": 100.0,
                        "error_rate": 0.0},
        })
    return {"w": runs}


def _verdicts(a, b):
    rows, found = compare.compare(a, b, BENCHMARK)
    return {row["metric"]: row["verdict"] for row in rows}, found


def test_compare_identical_sets_are_unchanged():
    verdicts, found = _verdicts(_runs(), _runs())
    assert set(verdicts.values()) == {"unchanged"} and not found


def test_compare_slowdown_past_the_bound_regresses():
    bound = max(m["bound"] for m in BENCHMARK["end_to_end"]
                if m["name"] in ("op_p50_s", "cells_per_s"))
    verdicts, _ = _verdicts(_runs(), _runs(op_s=0.1 * (1 + 1.5 * bound)))
    assert verdicts["op_p50_s"] == verdicts["cells_per_s"] == "regressed"
    assert verdicts["setup_s"] == "unchanged"
    verdicts, _ = _verdicts(_runs(), _runs(op_s=0.1 * (1 + 0.5 * bound)))
    assert verdicts["op_p50_s"] == verdicts["cells_per_s"] == "unchanged"


def test_compare_noisy_sets_are_unresolved():
    verdicts, _ = _verdicts(_runs(), _runs(spread=0.5))
    assert verdicts["op_p50_s"] == verdicts["cells_per_s"] == "unresolved"


def test_compare_digest_mismatch_and_errors_fail():
    b = _runs(digest="other")
    b["w"][0]["metrics"]["error_rate"] = 0.5
    _, found = _verdicts(_runs(), b)
    assert any("digest differs" in f for f in found)
    assert any("error_rate" in f for f in found)


def test_claim_rule():
    a, b = _runs(digest="a")["w"], _runs(op_s=0.08, digest="b")["w"]
    assert compare.claim(a, b, "op_p50_s", "lower") == []
    assert compare.claim(a, b, "op_p50_s", "higher")  # B is not higher
    assert compare.claim(a[:5], b[:5], "op_p50_s", "lower")  # too few pairs
    same_order = [{**r, "started": 10.0 * i + 5} for i, r in enumerate(b)]
    assert compare.claim(a, same_order, "op_p50_s", "lower")
