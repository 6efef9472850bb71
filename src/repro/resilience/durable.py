"""Durable whole-file writes: the one way a file gets to disk.

Every artifact the stack writes whole — checkpoints, shard results,
specs, leases, ``fleet.json``, the lot, traces, metrics, saved scans and
abaci — goes through :func:`durable_write`; the files that hold planes
pass it :func:`~repro.resilience.planes.write_planes` as their writer,
one write per file:

1. ``writer(fh)`` fills a binary handle on the sibling ``<name>.tmp``;
2. the handle is flushed and ``fsync``\\ ed, so the bytes are on disk;
3. the ``durable.write`` fault point fires (attrs: ``target`` — the
   file name — and ``parent`` — its directory's name), the one
   persistence boundary the crash-point drill kills at;
4. ``os.replace`` renames the tmp over the target, and the directory is
   ``fsync``\\ ed so the rename itself survives a power cut.

A reader therefore sees the previous complete file or the new complete
file, never a torn one.  Any exception — in ``writer``, at the fault
point, in the rename — unlinks the tmp and re-raises; only a process
killed outright can leave a ``<name>.tmp`` behind, and the next write to
the same target truncates and replaces it.

**One writer per target.**  The tmp name is a pure function of the
target, so two concurrent writers to one path would share (and tear) a
tmp.  The stack never does that: a run owns its checkpoint, a shard
worker its lease and result, the orchestrator its specs and
``fleet.json``, and the fleet supervisor SIGKILLs and reaps every worker
before it gives up a root.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable

from repro.resilience.faults import fault_point

__all__ = ["durable_write", "tmp_path"]


def tmp_path(path: Path) -> Path:
    """The sibling a write to ``path`` stages its bytes in."""
    return path.with_name(path.name + ".tmp")


def durable_write(path: str | Path, writer: Callable[[BinaryIO], object]) -> Path:
    """Write ``path`` whole and durably through ``writer(fh)``; returns it."""
    path = Path(path)
    tmp = tmp_path(path)
    try:
        with open(tmp, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        fault_point("durable.write", target=path.name, parent=path.parent.name)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path
