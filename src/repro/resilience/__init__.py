"""Resilience subsystem: degrade gracefully, retry deterministically, resume.

The production-scale north star (ROADMAP) means scans that take hours
and wafer runs that take days; at that scale solver blow-ups, worker
deaths and interrupts are routine, not exceptional.  This package turns
each of them from "lose the run" into data:

- :mod:`~repro.resilience.faults` — deterministic fault injection
  (:class:`FaultPlan` / :func:`inject` / :func:`fault_point`) so chaos
  tests can make any layer fail at a chosen cell, macro or die;
- :mod:`~repro.resilience.quality` — :class:`CellQuality` flags
  (GOOD/DEGRADED/FAILED) riding alongside the scan planes;
- :mod:`~repro.resilience.retry` — :class:`RetryPolicy` with bounded
  attempts and seeded exponential backoff + jitter;
- :mod:`~repro.resilience.checkpoint` — :class:`Checkpointer` /
  one append-only run file per run, powering ``--resume`` and kept as
  the finished run's artifact or shard result;
- :mod:`~repro.resilience.durable` — ``durable_write``, the one way a
  whole file reaches disk (tmp, fsync, rename, directory fsync),
  ``durable_append``, the one way a record is added to one, and
  ``durable_link``;
- :mod:`~repro.resilience.planes` — ``write_planes``/``read_container``,
  the one container every file holding planes is built from.
"""

from repro.resilience.checkpoint import (
    Checkpointer,
    ScanCheckpoint,
    list_checkpoints,
    load_checkpoint,
    read_run,
)
from repro.resilience.faults import (
    Fault,
    FaultPlan,
    active_fault_plan,
    fault_point,
    inject,
    install_plan,
)
from repro.resilience.quality import (
    QUALITY_DTYPE,
    CellQuality,
    quality_counts,
    quality_plane,
    worst_quality,
)
from repro.resilience.retry import DEFAULT_RETRY_POLICY, NO_RETRY, RetryPolicy

__all__ = [
    "Fault",
    "FaultPlan",
    "active_fault_plan",
    "fault_point",
    "inject",
    "install_plan",
    "CellQuality",
    "QUALITY_DTYPE",
    "quality_plane",
    "quality_counts",
    "worst_quality",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "Checkpointer",
    "ScanCheckpoint",
    "load_checkpoint",
    "list_checkpoints",
    "read_run",
]
