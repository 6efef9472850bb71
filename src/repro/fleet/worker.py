"""Shard worker: one supervised subprocess measuring one die range.

Launched by the orchestrator as ``python -m repro.fleet.worker
<spec.json>``; the spec file carries everything the worker needs —
wafer parameters, die range, scan options, lease/progress/result paths,
an optional checkpoint to resume and an optional serialized fault plan
(the chaos drill's kill switch).  Keeping the contract on disk rather
than in a pipe means a respawned worker needs nothing from the parent
but the spec path, and a human can re-run a dead shard by hand.

Crash-safety ordering is the point of this module:

1. measure the range (checkpoint persists as dies complete, durably),
2. keep the checkpoint as ``result.npz`` (``Checkpointer.keep``: flush,
   then hard-link — the result *is* the checkpoint),
3. record the shard manifest into the shard's run ledger, which
   **only then** unlinks the checkpoint name (``RunLedger.record``),
4. flip the lease to ``done``.

A kill between any two steps loses at most one save window of dies:
the checkpoint outlives the link, so the respawned worker resumes
instead of restarting; a repeated link is idempotent (same file), and a
repeated record under the reserved run id only finishes the checkpoint.
"""

from __future__ import annotations

import builtins
import json
import os
import sys
from pathlib import Path
from typing import Any

from repro.errors import FleetError, ResilienceError

__all__ = ["fault_plan_from_spec", "load_spec", "run_shard", "main"]


def fault_plan_from_spec(payload: dict[str, Any] | None):
    """Build a :class:`~repro.resilience.FaultPlan` from JSON.

    ``payload`` is ``{"seed": int, "faults": [{...}, ...]}`` where each
    fault dict carries ``site`` plus the optional :class:`Fault` fields
    (``kind``, ``match``, ``times``, ``after``, ``seconds``,
    ``probability``); ``kind="raise"`` names a builtin exception type in
    ``error`` (e.g. ``"RuntimeError"``).  Returns ``None`` when
    ``payload`` is ``None`` — the disarmed fast path.
    """
    if payload is None:
        return None
    from repro.resilience.faults import Fault, FaultPlan

    faults = []
    for entry in payload.get("faults", ()):
        error = None
        error_name = entry.get("error")
        if error_name is not None:
            exc_type = getattr(builtins, str(error_name), None)
            if exc_type is None or not (
                isinstance(exc_type, type)
                and issubclass(exc_type, BaseException)
            ):
                raise ResilienceError(
                    f"fault spec error {error_name!r} is not a builtin "
                    "exception type"
                )
            error = exc_type(entry.get("message", "injected fault"))
        faults.append(Fault(
            site=str(entry["site"]),
            error=error,
            kind=str(entry.get("kind", "raise")),
            match=dict(entry.get("match", {})),
            times=entry.get("times", 1),
            after=int(entry.get("after", 0)),
            seconds=float(entry.get("seconds", 0.0)),
            probability=entry.get("probability"),
        ))
    return FaultPlan(faults, seed=int(payload.get("seed", 0)))


def load_spec(path: str | Path) -> dict[str, Any]:
    """Read and minimally validate one worker spec file."""
    path = Path(path)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FleetError(f"unreadable shard spec {path}: {exc}") from exc
    for key in ("shard_id", "die_range", "wafer", "ledger_root",
                "lease_path", "result_path"):
        if key not in spec:
            raise FleetError(f"shard spec {path} is missing {key!r}")
    return spec


def _shard_scalars(model, scan) -> dict[str, float]:
    """Per-shard summary scalars (the shard manifest's drift diet):
    the range's :meth:`~repro.wafer.WaferReport.scalars` over its GOOD
    dies plus counts."""
    from repro.resilience.quality import CellQuality
    from repro.wafer import DieQuality, WaferReport

    lo, hi = scan.die_range
    physics = {}
    if (scan.die_quality == int(DieQuality.GOOD)).any():
        physics = WaferReport.from_planes(
            model.sites()[lo:hi], scan.die_means, scan.die_sigmas,
            model.diameter, scan.die_quality,
        ).scalars()
    cells = scan.die_cell_quality
    return {
        "dies": float(hi - lo),
        **physics,
        "degraded_cells": float((cells == int(CellQuality.DEGRADED)).sum()),
        "failed_cells": float((cells == int(CellQuality.FAILED)).sum()),
    }


def run_shard(spec: dict[str, Any]) -> int:
    """Execute one shard spec to completion; returns the exit status."""
    from time import monotonic, perf_counter

    from repro.fleet.lease import ShardLease, write_lease
    from repro.measure.config import ScanConfig
    from repro.obs.ledger import (
        RunLedger,
        RunManifest,
        config_fingerprint,
        config_hash,
    )
    from repro.obs.progress import NULL_PROGRESS, JsonlProgress
    from repro.resilience.checkpoint import Checkpointer
    from repro.resilience.faults import install_plan, mark_worker_process
    from repro.wafer import WaferModel

    # Kill faults only fire in marked worker processes; marking first
    # means a chaos plan can never misfire before supervision exists.
    mark_worker_process()
    install_plan(fault_plan_from_spec(spec.get("faults")))

    shard_id = int(spec["shard_id"])
    lo, hi = (int(v) for v in spec["die_range"])
    wafer_kwargs = dict(spec["wafer"])
    model = WaferModel(**wafer_kwargs)
    ledger = RunLedger(spec["ledger_root"])
    # Throttled persistence: a crash re-runs at most one window of
    # dies (bit-exact via RNG fast-forward) instead of paying a full
    # atomic plane write per die.
    checkpointer = Checkpointer(
        ledger,
        resume=spec.get("resume"),
        meta={"shard_id": shard_id, "die_range": [lo, hi], "wafer": wafer_kwargs},
        min_save_seconds=float(spec.get("checkpoint_every_seconds", 0.25)),
    )
    progress_path = spec.get("progress_path")
    if progress_path:
        Path(progress_path).parent.mkdir(parents=True, exist_ok=True)
        progress = JsonlProgress(progress_path, min_interval=0.1)
    else:
        progress = NULL_PROGRESS
    config = ScanConfig(
        technology=wafer_kwargs.get("technology", "edram"),
        progress=progress,
        checkpoint=checkpointer,
    )

    lease_path = Path(spec["lease_path"])
    lease = ShardLease(
        shard_id=shard_id, start=lo, stop=hi, pid=os.getpid(),
        generation=int(spec.get("generation", 0)),
    )
    write_lease(lease_path, lease.touch())

    # Heartbeats are throttled like checkpoints: the supervisor only
    # checks staleness at multi-second granularity, so a per-die atomic
    # rename would be pure overhead on large shards.
    heartbeat_every = float(spec.get("heartbeat_every_seconds", 0.2))
    last_beat = 0.0

    def on_die(index: int, done: int) -> None:
        nonlocal last_beat
        lease.run_id = checkpointer.run_id
        lease.dies_done = done
        now = monotonic()
        if now - last_beat >= heartbeat_every:
            write_lease(lease_path, lease.touch(dies_done=done))
            last_beat = now

    start = perf_counter()
    try:
        scan = model.measure_dies((lo, hi), config, on_die=on_die)
    except BaseException:
        lease.state = "failed"
        write_lease(lease_path, lease.touch())
        raise
    wall = perf_counter() - start

    result_path = Path(spec["result_path"])
    result_path.parent.mkdir(parents=True, exist_ok=True)
    checkpointer.keep(result_path)

    manifest = RunManifest(
        kind="shard",
        label=spec.get("label", f"shard[{lo},{hi})"),
        config=config_fingerprint(config),
        config_hash=config_hash(config),
        seed=wafer_kwargs.get("seed"),
        tech=model.tech.name,
        wall_seconds=wall,
        scalars=_shard_scalars(model, scan),
        extra={"shard_id": shard_id, "die_range": [lo, hi],
               "generation": lease.generation},
    )
    # The checkpoint name goes only after the result and manifest are
    # durable — a crash before then re-runs zero dies on respawn.
    ledger.record(manifest, checkpoint=checkpointer)

    lease.state = "done"
    lease.run_id = scan.run_id
    write_lease(lease_path, lease.touch(dies_done=hi - lo))
    return 0


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.fleet.worker <spec.json>`` entry point."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.fleet.worker <spec.json>",
              file=sys.stderr)
        return 2
    try:
        return run_shard(load_spec(argv[0]))
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
