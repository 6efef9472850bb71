"""Shard leases: tiny JSON heartbeat files the orchestrator watches.

A shard worker owns exactly one lease file for its lifetime.  It writes
the lease when it starts (claiming the die range), refreshes the
``heartbeat`` timestamp as dies complete, and flips ``state`` to
``done``/``failed`` on the way out.  The orchestrator never talks to
workers over a socket — it polls leases (and the OS exit codes), so a
SIGKILLed worker is indistinguishable from a powered-off machine: its
lease simply goes stale and supervision takes over.

Writes are durable (:func:`~repro.resilience.durable.durable_write`)
and reads are tolerant: a half-written or corrupt lease reads as
``None``, which the orchestrator treats the same as "no heartbeat yet"
— a crashed writer must never be able to wedge its own recovery by
leaving garbage behind.

Wall-clock time (``time.time``) is deliberate here: leases are compared
across processes and survive restarts, so a monotonic clock (whose
epoch is per-boot, per-process on some platforms) would be wrong.  The
fleet layer is outside the measurement path, so the DET determinism
lint rules do not apply.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.resilience.durable import durable_write

__all__ = ["ShardLease", "write_lease", "read_lease", "heartbeat_age"]


@dataclass
class ShardLease:
    """One worker's claim on a die range, refreshed as it progresses."""

    shard_id: int
    start: int
    stop: int
    pid: int
    generation: int
    state: str = "running"  #: ``running`` / ``done`` / ``failed``
    heartbeat: float = 0.0  #: ``time.time()`` of the last refresh
    dies_done: int = 0
    run_id: str | None = None

    def touch(self, dies_done: int | None = None) -> "ShardLease":
        """Refresh the heartbeat (and optionally the progress count)."""
        self.heartbeat = time.time()
        if dies_done is not None:
            self.dies_done = dies_done
        return self


def write_lease(path: str | Path, lease: ShardLease) -> None:
    """Persist ``lease`` durably."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(asdict(lease)) + "\n"
    durable_write(path, lambda fh: fh.write(text.encode("utf-8")))


def read_lease(path: str | Path) -> ShardLease | None:
    """Load a lease, or ``None`` when missing/corrupt/half-written."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return ShardLease(
            shard_id=int(data["shard_id"]),
            start=int(data["start"]),
            stop=int(data["stop"]),
            pid=int(data["pid"]),
            generation=int(data["generation"]),
            state=str(data["state"]),
            heartbeat=float(data["heartbeat"]),
            dies_done=int(data["dies_done"]),
            run_id=data.get("run_id"),
        )
    except (OSError, ValueError, TypeError, KeyError):
        return None


def heartbeat_age(lease: ShardLease, now: float | None = None) -> float:
    """Seconds since the lease's last heartbeat (``inf`` if never set)."""
    if lease.heartbeat <= 0.0:
        return float("inf")
    reference = time.time() if now is None else now
    return max(0.0, reference - lease.heartbeat)
