#!/usr/bin/env python3
"""End-to-end benchmark: five workloads from a 1 Mcell scan to a 2-shard fleet.

Every workload, one after another, each in a fresh interpreter::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7 [--trace] [--out FILE]

One workload (the form ``BENCHMARK.json``'s ``command`` takes)::

    python3 benchmarks/e2e/run.py --workload scan-1m --seed 7 --seconds 12 --trace 0

A workload run sets up at least ``SETUPS`` times and for at least
``MIN_SETUP_SECONDS`` (``setup_s`` is the median set-up),
then one client runs ops back to back (a closed loop) for ``--seconds``,
at least ``MIN_OPS`` of them.  Every op's output is checked; a failed
check fails its op.  The run prints each metric by name with its unit,
and its last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json``, or with ``--trace 1`` its ``per_layer`` metrics.  The
exit code is non-zero when a check fails.

Times are in reference-speed seconds (see ``speed.py``): each set-up and
op is timed on the wall clock and scaled by the host's speed, measured
with a fixed reference op run beside it.  Raw wall times are reported
too (``*_wall_s``), as is the host's speed (``host_speed``).

With ``--trace`` the ops alternate between traced and untraced.  Layer
metrics come from the traced ops, end-to-end numbers only from the
untraced ones, and ``trace_overhead`` is the share of ``cells_per_s``
the wrappers cost.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Check, Fleet, Wafer  # noqa: E402

#: Set-ups per run, at least; cheap ones repeat until they have taken
#: ``MIN_SETUP_SECONDS`` of wall time.  ``setup_s`` is their median.
SETUPS = 3
MIN_SETUP_SECONDS = 1.5
#: Ops per run even when ``--seconds`` runs out first.
MIN_OPS = 3
#: Scratch space for ledgers and fleet roots, inside the checkout.
WORK_ROOT = HERE / ".work"
#: Units of the end-to-end numbers a result carries beyond the ones
#: ``BENCHMARK.json`` gates (those take their unit from there).
EXTRA_UNITS = {
    "op_p90_s": "s",
    "ops": "count",
    "error_rate": "frac",
    "bad_cell_frac": "frac",
    "accuracy_err_pct": "%",
    "op_p50_wall_s": "s",
    "setup_wall_s": "s",
    "host_speed": "ratio",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def percentile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


@dataclass
class OpRecord:
    wall: float
    traced: bool
    check: Check
    seconds: float = math.nan  #: reference-speed seconds, once probed


def _timed_op(workload, recorder: layers.Recorder | None,
              probe: speed.SpeedProbe) -> OpRecord:
    if recorder is not None:
        recorder.install()
    start = perf_counter()
    try:
        out, error = workload.op(), None
    except Exception as exc:  # a raising op fails; the run goes on
        traceback.print_exc(file=sys.stderr)
        out, error = None, exc
    wall = perf_counter() - start
    if recorder is not None:
        recorder.uninstall()
    probe.record()
    if error is not None:
        check = Check(problems=[f"op raised {error!r}"])
    else:
        try:
            check = workload.check(out)
        except Exception as exc:  # a raising check fails its op
            traceback.print_exc(file=sys.stderr)
            check = Check(problems=[f"check raised {exc!r}"])
    if recorder is not None:
        for key, value in check.extras.items():
            recorder.values[key] += value
    return OpRecord(wall, recorder is not None, check)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 work_dir: Path, sizes: dict | None = None) -> dict:
    """Set up, run ops for ``seconds``, check them; return the result."""
    started = time.time()
    workload = WORKLOADS[name](seed, work_dir, **(sizes or {}))
    setup_rec, op_rec = layers.Recorder(), layers.Recorder()
    probe = speed.SpeedProbe()
    setup_wall: list[float] = []
    while len(setup_wall) < SETUPS or sum(setup_wall) < MIN_SETUP_SECONDS:
        workload.teardown()
        gc.collect()
        if trace:
            setup_rec.install()
        try:
            start = perf_counter()
            workload.setup()
            setup_wall.append(perf_counter() - start)
        finally:
            setup_rec.uninstall()
        probe.record()

    records: list[OpRecord] = []
    gc.collect()
    deadline = perf_counter() + seconds
    while len(records) < MIN_OPS or perf_counter() < deadline:
        traced = trace and len(records) % 2 == 0
        records.append(_timed_op(workload, op_rec if traced else None, probe))
    probe.flush()
    setup_seconds = [
        wall * factor for wall, factor in zip(setup_wall, probe.factors)
    ]
    for record, factor in zip(records, probe.factors[len(setup_wall):]):
        record.seconds = record.wall * factor
    try:
        oracle = workload.finish()
    except Exception as exc:  # a raising oracle fails the run
        traceback.print_exc(file=sys.stderr)
        oracle = Check(problems=[f"oracle raised {exc!r}"])

    reference = next((r.check.digest for r in records if r.check.digest), None)
    problems, failed = [], 0
    for index, record in enumerate(records):
        issues = list(record.check.problems)
        if record.check.digest != reference:
            issues.append("digest differs from the first op's")
        failed += bool(issues)
        problems += [f"op {index}: {issue}" for issue in issues]
    bad = sum(r.check.bad_cells for r in records)
    checked = sum(r.check.checked_cells for r in records)
    if oracle is not None:
        run_issues = list(oracle.problems)
        if oracle.digest is not None and oracle.digest != reference:
            run_issues.append("digest differs from the cross-path oracle's")
        if run_issues:
            failed = len(records)  # the oracle vouches for every op
            problems += [f"oracle: {issue}" for issue in run_issues]
        bad += oracle.bad_cells
        checked += oracle.checked_cells

    plain = [r for r in records if not r.traced]
    plain_seconds = [r.seconds for r in plain]
    metrics = {
        "cells_per_s": workload.cells * len(plain) / sum(plain_seconds),
        "op_p50_s": statistics.median(plain_seconds),
        "op_p90_s": percentile(plain_seconds, 0.9),
        "ops": len(plain),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": failed / len(records),
        "bad_cell_frac": bad / checked if checked else 0.0,
        "op_p50_wall_s": statistics.median(r.wall for r in plain),
        "setup_wall_s": statistics.median(setup_wall),
        "host_speed": statistics.median(
            speed.REF_SECONDS / seconds for seconds in probe.passes
        ),
    }
    accuracy = [
        r.check.extras["accuracy_err_pct"] for r in records
        if "accuracy_err_pct" in r.check.extras
    ]
    if accuracy:
        metrics["accuracy_err_pct"] = statistics.median(accuracy)
    layer = {}
    if trace:
        traced = [r for r in records if r.traced]
        traced_wall = sum(r.wall for r in traced)
        layer = layers.layer_metrics(
            op_rec, setup_rec, len(traced), len(setup_wall),
            op_seconds=traced_wall,
            op_scale=sum(r.seconds for r in traced) / traced_wall,
            setup_scale=sum(setup_seconds) / sum(setup_wall),
        )
        layer["trace_overhead"] = 1 - statistics.median(plain_seconds) / statistics.median(
            r.seconds for r in traced
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": started,
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "digest": reference,
        "metrics": metrics,
        "layers": layer,
        "op_seconds": [r.seconds for r in records],
        "op_wall_seconds": [r.wall for r in records],
        "traced_ops": [r.traced for r in records],
        "setup_seconds": setup_seconds,
        "setup_wall_seconds": setup_wall,
        "problems": problems[:20],
    }


def contract_line(result: dict, benchmark: dict) -> dict:
    """The last stdout line: the metrics ``BENCHMARK.json`` declares."""
    section, values = (
        ("per_layer", result["layers"]) if result["trace"]
        else ("end_to_end", result["metrics"])
    )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in benchmark[section]
        },
    }


def units(benchmark: dict) -> dict[str, str]:
    """Unit of every metric name a result can carry."""
    declared = benchmark["end_to_end"] + benchmark["per_layer"]
    return {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in declared}}


def print_result(result: dict, benchmark: dict) -> None:
    unit = units(benchmark)
    name = result["workload"]
    print(f"{name}  seed {result['seed']}  {result['attempted']} ops, "
          f"{result['failed']} failed  digest {str(result['digest'])[:16]}")
    for metric, value in {**result["metrics"], **result["layers"]}.items():
        print(f"{name:<16} {metric:<26} {value:>14.6g} {unit[metric]}")
    for problem in result["problems"]:
        print(f"{name:<16} CHECK FAILED: {problem}")


def run_all(args: argparse.Namespace, benchmark: dict, seconds: float) -> int:
    """Each workload in a fresh interpreter; returns the exit code."""
    outs = WORK_ROOT / f"results-{os.getpid()}"
    outs.mkdir(parents=True)
    results, problems, status = {}, [], 0
    for entry in benchmark["workloads"]:
        name = entry["name"]
        out = outs / f"{name}.json"
        code = subprocess.run([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--out", str(out),
        ]).returncode
        status = status or code
        if out.exists():
            results[name] = json.loads(out.read_text(encoding="utf-8"))
        else:
            problems.append(f"{name} wrote no result (exit {code})")
    shutil.rmtree(outs)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()
    wafer, fleet = results.get(Wafer.name), results.get(Fleet.name)
    if wafer and fleet and wafer["digest"] != fleet["digest"]:
        problems.append(f"{Fleet.name} lot digest differs from {Wafer.name}'s")
    unit = units(benchmark)
    print(f"\nsummary, seed {args.seed}"
          + (" (end-to-end numbers from the untraced ops)" if args.trace else ""))
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            print(f"{name:<16} {metric:<18} {value:>14.6g} {unit[metric]}")
        if "trace_overhead" in result["layers"]:
            print(f"{name:<16} {'trace_overhead':<18} "
                  f"{result['layers']['trace_overhead']:>14.6g} frac")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed, "trace": bool(args.trace),
            "results": results, "problems": problems,
        }, indent=2) + "\n", encoding="utf-8")
    return 1 if problems else status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one by one)")
    parser.add_argument("--seed", type=int, default=7,
                        help="sets mismatch maps, defect sites and wafers")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also time every layer")
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    if args.workload is None:
        return run_all(args, benchmark, seconds)

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), work_dir=work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()
    print_result(result, benchmark)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(contract_line(result, benchmark)), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
