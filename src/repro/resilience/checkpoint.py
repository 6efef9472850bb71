"""Run files: checkpoint/resume, and the one on-disk form of a run's planes.

A million-cell wafer run that dies at 97% — power cut, pre-empted batch
job, plain Ctrl-C — must not restart from zero.  A run file is one
append-only file, while unfinished its checkpoint
``<ledger>/checkpoints/<run_id>.npz``:

* A run **reserves its run id up front** (under the ledger's advisory
  lock) by writing the file's header with
  :func:`~repro.resilience.durable.durable_write`: a plane container
  (:mod:`repro.resilience.planes`) holding kind, config fingerprint,
  unit count, caller meta and each plane's name, shape and dtype — and
  no planes.
* Every persist **appends one segment** with
  :func:`~repro.resilience.durable.durable_append`: a container of the
  units it completes, the leading-axis rows they cover, and just those
  rows of each plane — O(units since the last persist) and one fsync.
  A kill inside an append can tear only that last segment: replay stops
  at the first container that does not parse, and the resumed run's
  first append cuts it off.  Its units are simply re-run.
* ``repro scan --resume r0042`` validates the header against the
  resuming configuration (its
  :func:`~repro.obs.ledger.config_fingerprint`) and the caller's blank
  planes, replays the segments in order into those blanks and
  re-executes only the units not yet complete — bit-exact, because
  replayed rows are byte-identical and every unit is deterministic.
* A finished run **keeps its file** as its artifact or shard result
  (:meth:`Checkpointer.keep`: flush, then hard-link), is recorded, and
  :meth:`Checkpointer.finish` unlinks the checkpoint name (all three in
  :meth:`~repro.obs.ledger.RunLedger.record`) — a checkpoint existing
  *is* the statement "this run has not finished".
  :func:`write_run` writes the same format whole; :func:`read_run`
  replays any finished run file.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, Iterable

import numpy as np

from repro.errors import CheckpointError
from repro.obs.ledger import RunLedger
from repro.resilience.durable import durable_append, durable_link, durable_write, tmp_path
from repro.resilience.planes import read_container, write_planes

__all__ = [
    "ScanCheckpoint",
    "Checkpointer",
    "load_checkpoint",
    "list_checkpoints",
    "read_run",
    "write_run",
]

@dataclass
class ScanCheckpoint:
    """In-memory image of one checkpoint (header + replayed segments).

    ``arrays`` holds the partial result planes (written into in place
    by the run as units complete); ``completed`` lists the finished
    unit indices in completion order; ``meta`` is caller-owned JSON
    state (array-rebuild args, ...).
    """

    kind: str
    run_id: str
    fingerprint: dict[str, Any]
    total: int
    completed: list[int] = field(default_factory=list)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    created: str = ""

    @property
    def remaining(self) -> int:
        return self.total - len(self.completed)


def _checkpoint_path(ledger: RunLedger, run_id: str) -> Path:
    return ledger.checkpoint_dir / f"{run_id}.npz"


#: A header's ``segments``: they follow it in its file.  A pre-change
#: header has none — its segments sat in a ``<run_id>.journal/`` directory.
_APPENDED = "appended"


def _open(path: Path) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


def _read_header(
    fh: BinaryIO, path: Path
) -> tuple[ScanCheckpoint, dict[str, tuple[tuple[int, ...], np.dtype]]]:
    """The run described by the header at the start of ``fh`` (no
    planes yet) and its plane layout ``{name: (shape, dtype)}``."""
    try:
        header, _ = read_container(fh, "checkpoint", path)
    except ValueError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if header.get("segments") != _APPENDED:
        raise CheckpointError(
            f"{path} is a pre-change checkpoint (a manifest plus a "
            f"{path.stem}.journal/ segment directory), not a single-file "
            "checkpoint; resume it with the release that wrote it"
        )
    try:
        layout = {
            str(name): (tuple(int(n) for n in spec["shape"]),
                        np.dtype(spec["dtype"]))
            for name, spec in header["layout"].items()
        }
        state = ScanCheckpoint(
            kind=str(header["run_kind"]),
            run_id=str(header["run_id"]),
            fingerprint=dict(header["fingerprint"]),
            total=int(header["total"]),
            meta=dict(header.get("meta", {})),
            created=str(header.get("created", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return state, layout


def _row_index(rows: list[int]) -> slice | np.ndarray:
    """Index for sorted unique ``rows``: a slice when they are a run."""
    if rows and rows[-1] - rows[0] + 1 == len(rows):
        return slice(rows[0], rows[-1] + 1)
    return np.asarray(rows, dtype=np.intp)


def _replay(
    fh: BinaryIO, path: Path, arrays: dict[str, np.ndarray]
) -> tuple[list[int], int]:
    """Apply the segments after the header to ``arrays`` in write order,
    up to the first container that does not parse (end of file or a torn
    append).  Returns the completed units, in order, and the end of the
    last whole segment."""
    completed: list[int] = []
    seen: set[int] = set()
    end = fh.tell()
    while True:
        try:
            header, blocks = read_container(fh, "segment", path)
        except ValueError:
            return completed, end
        try:
            rows = [int(r) for r in header["rows"]]
            units = [int(u) for u in header["units"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed segment at byte {end} of {path}: {exc}") from exc
        found = {name: (block.dtype, block.shape) for name, block in blocks.items()}
        layout = {name: (plane.dtype, (len(rows), *plane.shape[1:]))
                  for name, plane in arrays.items()}
        if found != layout:
            raise CheckpointError(
                f"segment at byte {end} of {path} holds {found}, expected {layout}"
            )
        index = _row_index(rows)
        for name, block in blocks.items():
            arrays[name][index] = block
        for unit in units:
            if unit not in seen:
                seen.add(unit)
                completed.append(unit)
        end = fh.tell()


def load_checkpoint(path: str | Path) -> ScanCheckpoint:
    """Read one checkpoint file, raising :class:`CheckpointError` when
    unreadable or malformed.  The planes are the segments replayed into
    zeros of the header's layout: rows no segment covers read as zero."""
    path = Path(path)
    with _open(path) as fh:
        state, layout = _read_header(fh, path)
        state.arrays = {
            name: np.zeros(shape, dtype) for name, (shape, dtype) in layout.items()
        }
        state.completed, _ = _replay(fh, path, state.arrays)
    return state


def read_run(path: str | Path, kind: str) -> ScanCheckpoint:
    """:func:`load_checkpoint`, refused unless ``path`` holds a ``kind``
    run with every unit complete (an unfinished run is no result)."""
    try:
        state = load_checkpoint(path)
    except CheckpointError as exc:
        raise CheckpointError(f"not a {kind!r} run file: {exc}") from None
    if state.kind != kind or state.remaining:
        raise CheckpointError(
            f"{path} is not a finished {kind!r} run: it holds a "
            f"{state.kind!r} run with {len(state.completed)} of "
            f"{state.total} units complete"
        )
    return state


def write_run(path: str | Path, kind: str, planes: dict[str, np.ndarray],
              meta: dict[str, Any]) -> Path:
    """Write a finished ``kind`` run file whole: its header, then one
    segment holding every row of ``planes`` as the run's one unit."""
    state = ScanCheckpoint(
        kind=kind, run_id="", fingerprint={}, total=1, completed=[0],
        arrays=dict(planes), meta=dict(meta),
    )
    rows = list(range(len(next(iter(planes.values())))))

    def writer(fh: BinaryIO) -> None:
        write_planes(fh, _header(state), {})
        _segment_into(fh, state, [0], rows)

    return durable_write(path, writer)


def list_checkpoints(ledger: RunLedger) -> list[ScanCheckpoint]:
    """Every unfinished (checkpointed) run in the ledger, by run id."""
    return [load_checkpoint(path) for path in ledger.checkpoint_files()]


class Checkpointer:
    """Drives checkpointing for one run (attach via ``ScanConfig.checkpoint``).

    Parameters
    ----------
    ledger:
        The :class:`RunLedger` (or its root path) that owns the
        checkpoint directory and the reserved run id.
    resume:
        Run id of an existing checkpoint to resume, or ``None`` to
        start fresh.
    meta:
        Caller-owned JSON state folded into the checkpoint's ``meta``
        on a fresh :meth:`start` (the CLI stores its array-rebuild
        arguments here so ``--resume`` can reconstruct the array).  On
        resume the stored meta wins, and each key given here must equal
        its stored value or the resume is refused naming the key (a
        fleet shard's die range, wafer and calibration table).
    min_save_seconds:
        Minimum seconds between the segments that :meth:`mark_done`
        appends.  ``0.0`` (the default) persists after every call — the
        strongest crash guarantee.  A segment costs O(units since the
        last one) plus a fixed fsync, so a run of many tiny units (a
        fleet shard's dies) raises this to bound that fixed cost:
        completed units still accumulate in memory on every
        ``mark_done`` and go out together in the next segment, a crash
        merely re-runs the units finished since the last persist, and
        resume stays bit-exact because re-run dies reproduce their
        planes from the same RNG fast-forward.  An explicit
        :meth:`save` always appends what is pending.
    """

    def __init__(
        self,
        ledger: "RunLedger | str | Path",
        resume: str | None = None,
        *,
        meta: dict[str, Any] | None = None,
        min_save_seconds: float = 0.0,
    ) -> None:
        self.ledger = ledger if isinstance(ledger, RunLedger) else RunLedger(ledger)
        self.resume = resume
        self.base_meta = dict(meta or {})
        self.min_save_seconds = float(min_save_seconds)
        self.state: ScanCheckpoint | None = None
        self._last_save = 0.0
        self._done_seen: set[int] | None = None
        self._end = 0
        self._pending_units: list[int] = []
        self._pending_rows: set[int] = set()

    @property
    def resuming(self) -> bool:
        return self.resume is not None

    @property
    def run_id(self) -> str:
        if self.state is None:
            raise CheckpointError("checkpointer not started")
        return self.state.run_id

    @property
    def path(self) -> Path:
        """The run's checkpoint file, ``checkpoints/<run_id>.npz``."""
        return _checkpoint_path(self.ledger, self.run_id)

    # -- lifecycle -----------------------------------------------------

    def start(
        self,
        kind: str,
        fingerprint: dict[str, Any],
        arrays: dict[str, np.ndarray],
        *,
        total: int,
        meta: dict[str, Any] | None = None,
    ) -> ScanCheckpoint:
        """Open the run: reserve a fresh id, or validate + replay ``resume``.

        ``arrays`` are the caller's blank planes; the run keeps writing
        into ``state.arrays``, which are those same arrays (on resume
        with the segments replayed into them).  On resume kind,
        fingerprint, the constructor's meta keys, unit count and plane
        layout must all match or the mismatch is refused with a
        :class:`CheckpointError` naming the difference.
        """
        if self.resume is not None:
            state = self._load_resume(kind, fingerprint, arrays, total)
        else:
            with self.ledger.locked():
                run_id = self.ledger.next_run_id()
                state = ScanCheckpoint(
                    kind=kind,
                    run_id=run_id,
                    fingerprint=dict(fingerprint),
                    total=total,
                    arrays=dict(arrays),
                    meta={**self.base_meta, **(meta or {})},
                    created=_now(),
                )
                self.ledger.checkpoint_dir.mkdir(exist_ok=True)
                # Writing the header inside the lock *is* the id
                # reservation — next_run_id scans this directory.
                self._write_manifest(state)
        # A reused Checkpointer must not carry the previous run's
        # completed-index cache or pending rows into a new run.
        self._done_seen = None
        self._pending_units, self._pending_rows = [], set()
        self._last_save = time.monotonic()
        self.state = state
        return state

    def _load_resume(
        self,
        kind: str,
        fingerprint: dict[str, Any],
        arrays: dict[str, np.ndarray],
        total: int,
    ) -> ScanCheckpoint:
        path = _checkpoint_path(self.ledger, str(self.resume))
        if not path.exists():
            known = ", ".join(
                p.stem for p in self.ledger.checkpoint_files()
            )
            raise CheckpointError(
                f"no checkpoint {self.resume!r} in {self.ledger.checkpoint_dir} "
                f"(unfinished runs: {known or '(none)'})"
            )
        with _open(path) as fh:
            state, layout = _read_header(fh, path)
            if state.kind != kind:
                raise CheckpointError(
                    f"checkpoint {state.run_id} is a {state.kind!r} run, "
                    f"cannot resume as {kind!r}"
                )
            if state.fingerprint != dict(fingerprint):
                raise CheckpointError(
                    f"checkpoint {state.run_id} was written under config "
                    f"{state.fingerprint}, resuming config is {dict(fingerprint)}; "
                    "refusing to mix results"
                )
            for key, value in self.base_meta.items():
                if state.meta.get(key) != value:
                    raise CheckpointError(
                        f"checkpoint {state.run_id} recorded another {key!r} "
                        "than the resuming run's; refusing to mix results"
                    )
            if state.total != total:
                raise CheckpointError(
                    f"checkpoint {state.run_id} covers {state.total} units, "
                    f"resuming run has {total}"
                )
            if set(layout) != set(arrays):
                raise CheckpointError(
                    f"checkpoint {state.run_id} holds planes {sorted(layout)}, "
                    f"resuming run has {sorted(arrays)}"
                )
            for name, blank in arrays.items():
                shape, dtype = layout[name]
                if shape != blank.shape:
                    raise CheckpointError(
                        f"checkpoint {state.run_id} plane {name!r} has shape "
                        f"{shape}, expected {blank.shape} — different array "
                        "geometry?"
                    )
                if dtype != blank.dtype:
                    raise CheckpointError(
                        f"checkpoint {state.run_id} plane {name!r} has dtype "
                        f"{dtype}, expected {blank.dtype}"
                    )
            state.arrays = dict(arrays)
            state.completed, self._end = _replay(fh, path, state.arrays)
        return state

    # -- progress ------------------------------------------------------

    def mark_done(
        self, *indices: int, rows: int | slice | Iterable[int] | None = None
    ) -> None:
        """Record units ``indices`` complete; persist them as one segment.

        ``rows`` are the leading-axis rows of the planes those units
        filled — a scan passes its slab's row slice, a die range passes
        each die's offset in its planes.  ``None`` means the units' own
        indices (unit ``i`` is row ``i``).

        With ``min_save_seconds`` set, the in-memory record always
        updates but the persist waits while the throttle window is
        open; the next segment then carries every unit marked since.
        """
        state = self._require_state()
        # Membership via a cached set — rebuilding one from the
        # completed list per unit would make a long run quadratic.
        if self._done_seen is None:
            self._done_seen = set(state.completed)
        seen = self._done_seen
        fresh = [index for index in dict.fromkeys(indices) if index not in seen]
        seen.update(fresh)
        state.completed.extend(fresh)
        self._pending_units.extend(fresh)
        self._pending_rows.update(_rows(indices if rows is None else rows))
        if time.monotonic() - self._last_save < self.min_save_seconds:
            return
        self.save()

    def save(self) -> None:
        """Append the pending rows as one segment (never throttled).

        A no-op when nothing is pending: the file already holds every
        row marked done.
        """
        state = self._require_state()
        if not self._pending_rows:
            return
        self._write_segment(state)
        self._pending_units, self._pending_rows = [], set()
        self._last_save = time.monotonic()

    def keep(self, path: str | Path) -> Path:
        """Append the pending rows, then hard-link the finished run's file
        to ``path`` durably: its artifact or result *is* the checkpoint.
        The run's record then appends its line and calls :meth:`finish`."""
        if self._require_state().remaining:
            raise CheckpointError(f"checkpoint {self.run_id} is unfinished")
        if self._pending_rows:
            self.save()
        return durable_link(self.path, path)

    def finish(self) -> str:
        """Close the run: unlink the checkpoint name; return the run id.

        A recorded run is finished by its record, after its manifest
        line; after ``finish`` the ledger shows a completed run and no
        checkpoint.
        """
        state = self._require_state()
        path = _checkpoint_path(self.ledger, state.run_id)
        path.unlink(missing_ok=True)
        # A header write torn by a kill of an earlier generation.
        tmp_path(path).unlink(missing_ok=True)
        self._done_seen = None
        self._pending_units, self._pending_rows = [], set()
        return state.run_id

    def _require_state(self) -> ScanCheckpoint:
        if self.state is None:
            raise CheckpointError("checkpointer not started")
        return self.state

    def _write_manifest(self, state: ScanCheckpoint) -> None:
        """The checkpoint file's first record: its header."""
        path = durable_write(
            _checkpoint_path(self.ledger, state.run_id),
            lambda fh: write_planes(fh, _header(state), {}),
        )
        self._end = path.stat().st_size

    def _write_segment(self, state: ScanCheckpoint) -> None:
        """Append the next segment: the pending units and just their rows.

        A segment holds only the rows it completes, so the fsync, not
        the bytes, dominates its cost.  The append cuts a torn tail past
        the last whole record first.
        """
        record = io.BytesIO()
        _segment_into(
            record, state, self._pending_units, sorted(self._pending_rows)
        )
        data = record.getvalue()
        durable_append(self.path, data, keep=self._end)
        self._end += len(data)


def _header(state: ScanCheckpoint) -> dict[str, Any]:
    """A run file's first record: a container with no planes."""
    return {
        "kind": "checkpoint",
        "segments": _APPENDED,
        "run_kind": state.kind,
        "run_id": state.run_id,
        "fingerprint": state.fingerprint,
        "total": state.total,
        "meta": state.meta,
        "created": state.created,
        "layout": {
            name: {"shape": list(plane.shape), "dtype": plane.dtype.str}
            for name, plane in state.arrays.items()
        },
    }


def _segment_into(
    fh: BinaryIO, state: ScanCheckpoint, units: list[int], rows: list[int]
) -> None:
    """One segment container: ``units`` and just ``rows`` of each plane."""
    index = _row_index(rows)
    write_planes(
        fh,
        {"kind": "segment", "units": units, "rows": rows},
        {name: plane[index] for name, plane in state.arrays.items()},
    )


def _rows(rows: int | slice | Iterable[int]) -> Iterable[int]:
    if isinstance(rows, slice):
        return range(rows.start or 0, rows.stop, rows.step or 1)
    if isinstance(rows, (int, np.integer)):
        return (int(rows),)
    return (int(r) for r in rows)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")
