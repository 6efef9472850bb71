"""Fleet orchestration overhead: the fixed cost of a 2-shard supervised run.

The fleet exists for fault tolerance, not speed — but fault tolerance
must not tax the healthy path.  This gate runs a 2-shard local fleet
(orchestrator + supervised worker subprocesses + leases + throttled
checkpoints + per-shard JSONL progress) over the d121 wafer and bounds
its **fixed cost**: fleet wall minus the slowest shard's own measuring
time (its manifest ``wall_seconds``), the same split as the end-to-end
benchmark's ``fleet.fixed_s``.  That remainder is interpreter start and
imports in each worker, lease writes and polling, result files, and
waiting on the slower shard to be spawned — everything the fleet adds
on top of measuring dies.  The bound is **1.5 s**.

Why seconds and not the former 1.25× ratio against one in-process
:meth:`WaferModel.measure_wafer`: the ratio assumed die work dominates.
Since the wafer die loop measures dies in stacked chunks, the d121
wafer takes about 1 s in one process, and two interpreter starts cost
as much as the whole wafer.  Measured on a shared 2-vCPU host (Python
3.11, 12 fleet runs, 4 of them paired with an in-process wafer):
in-process wafer 0.95–1.32 s, fleet 1.35–2.23 s (ratio 1.03–2.25),
slowest shard 0.65–1.24 s, fixed cost 0.67–1.01 s.  Before the chunked
loop the same split gave fleet 7.6–9.2 s and fixed cost 0.74–0.98 s
(3 runs), so the fixed cost itself did not change; 1.5 s leaves about
50 % headroom over the worst run for a loaded host.  Most of the fixed
cost was each worker's import of ``repro``.  Once package names
resolved lazily, a worker stopped loading the analysis packages, and
the fixed cost fell to 0.57–0.85 s (median 0.60 s) from 0.86–1.44 s
(median 0.89 s).  That is 5 alternating runs per side on the same
2-vCPU host with Python 3.11.  The bound stays 1.5 s.  The gate takes the
best of up to ``ATTEMPTS`` runs, because a loaded machine inflates any
single wall-clock reading.

The run also pins correctness while it's here: the merged lot's
``die_means`` must be bit-identical to the single-process wafer
report's means.  Results append to the ``BENCH_scan.json`` history as
``kind="fleet_overhead"`` so ``check_bench_history`` can chart the
orchestration tax across commits; the wafer/fleet ratio is recorded
there for reference, not gated.
"""

import gc
import shutil
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from bench_perf_scan import _append_history, _git_rev
from conftest import report

from repro.fleet import FleetOrchestrator, merge_lot
from repro.obs.ledger import RunLedger
from repro.wafer import WaferModel

#: Wafer width in dies — the full-wafer size both sides are timed at.
DIAMETER = 121
SEED = 11
SHARDS = 2

#: Bound on fleet wall minus the slowest shard's measuring time, seconds.
FIXED_BUDGET_SECONDS = 1.5

#: Best-of attempts; stop early once the gate passes.
ATTEMPTS = 3


def _measure_wafer_seconds():
    """One single-process wafer measurement, timed."""
    model = WaferModel(diameter_dies=DIAMETER, seed=SEED)
    gc.collect()
    started = time.perf_counter()
    wafer_report = model.measure_wafer()
    seconds = time.perf_counter() - started
    means = np.array([die.mean_capacitance for die in wafer_report.dies])
    return seconds, means


def _measure_fleet_seconds(root: Path):
    """One 2-shard fleet run, timed (run only — merge checked).

    Returns ``(fleet seconds, slowest shard seconds, lot)``; the shard
    time is the ``wall_seconds`` its worker recorded around measuring.
    """
    orchestrator = FleetOrchestrator(
        root,
        wafer={"diameter_dies": DIAMETER, "seed": SEED},
        shards=SHARDS,
        poll_seconds=0.02,
    )
    gc.collect()
    started = time.perf_counter()
    fleet_report = orchestrator.run()
    seconds = time.perf_counter() - started
    assert fleet_report.state == "healthy", (
        f"fleet finished {fleet_report.state!r}: "
        f"{[s.to_dict() for s in fleet_report.shards]}"
    )
    slowest = max(
        manifest.wall_seconds
        for shard in fleet_report.shards
        for manifest in RunLedger(orchestrator.shard_root(shard.shard_id)).runs()
        if manifest.kind == "shard"
    )
    lot = merge_lot(root)
    return seconds, slowest, lot


def bench_perf_fleet_overhead():
    """A 2-shard local fleet's fixed cost must stay within 1.5 s."""
    best_wafer = float("inf")
    best_fleet = float("inf")
    best_fixed = float("inf")
    best_shard = float("inf")
    wafer_means = None
    lot = None
    attempts = 0
    for attempt in range(ATTEMPTS):
        attempts = attempt + 1
        seconds, means = _measure_wafer_seconds()
        best_wafer = min(best_wafer, seconds)
        if wafer_means is None:
            wafer_means = means
        root = Path(tempfile.mkdtemp(prefix="bench-fleet-")) / "fleet"
        try:
            seconds, slowest, lot = _measure_fleet_seconds(root)
            best_fleet = min(best_fleet, seconds)
            if seconds - slowest < best_fixed:
                best_fixed, best_shard = seconds - slowest, slowest
            measured = ~np.isnan(lot.die_means)
            assert measured.all(), "merged lot has unmeasured dies"
            assert np.array_equal(lot.die_means, wafer_means), (
                "merged lot die_means differ from the single-process wafer"
            )
        finally:
            shutil.rmtree(root.parent, ignore_errors=True)
        if best_fixed <= FIXED_BUDGET_SECONDS:
            break

    ratio = best_fleet / best_wafer
    dies = int(lot.total_dies)
    entry = {
        "kind": "fleet_overhead",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "diameter_dies": DIAMETER,
        "dies": dies,
        "shards": SHARDS,
        "wafer_seconds": best_wafer,
        "fleet_seconds": best_fleet,
        "fleet_overhead_ratio": ratio,
        "slowest_shard_seconds": best_shard,
        "fleet_fixed_seconds": best_fixed,
    }
    _append_history(entry)

    report(
        "fleet overhead (2 shards vs 1 process)",
        "\n".join([
            f"wafer ({dies} dies) : {best_wafer:8.2f} s  (single process)",
            f"fleet x{SHARDS}           : {best_fleet:8.2f} s  (supervised "
            f"workers; {ratio:.2f}x the wafer)",
            f"fixed cost         : {best_fixed:8.2f} s  (fleet minus slowest "
            f"shard {best_shard:.2f} s; budget {FIXED_BUDGET_SECONDS:.2f} s, "
            f"{attempts} attempt(s))",
        ]),
    )
    assert best_fixed <= FIXED_BUDGET_SECONDS, (
        f"2-shard fleet fixed cost {best_fixed:.2f}s (fleet minus slowest "
        f"shard over {attempts} attempts) exceeds the "
        f"{FIXED_BUDGET_SECONDS:.2f}s budget"
    )
