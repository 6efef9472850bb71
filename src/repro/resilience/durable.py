"""Durable writes and appends: the two ways bytes get to disk.

Every artifact the stack writes whole — checkpoint headers, shard
results, specs, leases, ``fleet.json``, the lot, traces, metrics, saved
scans and abaci — goes through :func:`durable_write`; the files that
hold planes pass it :func:`~repro.resilience.planes.write_planes` as
their writer:

1. ``writer(fh)`` fills a binary handle on the sibling ``<name>.tmp``;
2. the handle is flushed and ``fsync``\\ ed, so the bytes are on disk;
3. the ``durable.write`` fault point fires (attrs: ``target`` — the
   file name — and ``parent`` — its directory's name);
4. ``os.replace`` renames the tmp over the target, and the directory is
   ``fsync``\\ ed so the rename itself survives a power cut.

A reader sees the previous complete file or the new one, never a torn
one.  Any exception unlinks the tmp; only a process killed outright can
leave a ``<name>.tmp``, and the next write to the target replaces it.

Every record added to a file — a checkpoint segment, a run-ledger
manifest line — goes through :func:`durable_append`: the
``durable.append`` fault point (same attrs), then append, flush and
``fsync`` (and the directory's, when the append creates the file).  A
kill inside an append can tear only the last record: readers ignore it,
and the caller passes the end of its last whole record as ``keep``, so
the next append cuts the torn bytes first.

A finished run file gets its second name (an artifact, a shard result)
through :func:`durable_link`: a hard link at the tmp, the
``durable.link`` fault point, ``os.replace`` and a directory ``fsync``;
both names sit under one ledger or fleet root, so on one filesystem.
The persistence boundaries of a run are exactly the invocations of
these three fault points.

**One writer per target.**  The tmp name is a pure function of the
target, so two concurrent writers to one path would share (and tear) a
tmp.  The stack never does that: a run owns its checkpoint, a shard
worker its lease and result, the orchestrator its specs and
``fleet.json``, the ledger lock serialises manifest appends, and the
fleet supervisor SIGKILLs and reaps every worker before it gives up a
root.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable

from repro.resilience.faults import fault_point

__all__ = ["durable_append", "durable_link", "durable_write", "tmp_path"]


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
    _fsync_directory(path.parent)
    return path


def durable_append(path: str | Path, data: bytes, *, keep: int | None = None) -> Path:
    """Append ``data`` to ``path`` durably, first cutting any bytes past
    ``keep`` (the end of the last whole record); returns ``path``."""
    path = Path(path)
    fault_point("durable.append", target=path.name, parent=path.parent.name)
    created = not path.exists()
    with open(path, "ab") as fh:
        if keep is not None and fh.tell() > keep:
            fh.truncate(keep)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        _fsync_directory(path.parent)
    return path


def durable_link(source: str | Path, target: str | Path) -> Path:
    """Give the file ``source`` the second name ``target`` durably,
    copying no byte; returns ``target``."""
    source, target = Path(source), Path(target)
    tmp = tmp_path(target)
    tmp.unlink(missing_ok=True)  # left by a kill inside an earlier link
    try:
        os.link(source, tmp)
        fault_point("durable.link", target=target.name, parent=target.parent.name)
        os.replace(tmp, target)
    finally:
        # A replace onto a name of the same file leaves the tmp behind.
        tmp.unlink(missing_ok=True)
    _fsync_directory(target.parent)
    return target


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
