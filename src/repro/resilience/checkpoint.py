"""Checkpoint/resume: an interrupted run is a partial result, not a loss.

A million-cell wafer run that dies at 97% — power cut, pre-empted batch
job, plain Ctrl-C — must not restart from zero.  The checkpoint story:

* A run that checkpoints **reserves its run id up front** (under the
  ledger's advisory lock) by writing a small manifest,
  ``<ledger>/checkpoints/<run_id>.npz``: a plane container
  (:mod:`repro.resilience.planes`) whose header holds kind, config
  fingerprint, unit count, caller meta and each plane's name, shape and
  dtype — and no planes.
* Every persist then writes one **journal segment**,
  ``<run_id>.journal/NNNNNN.seg``: a container of the unit indices it
  completes, the leading-axis rows those units cover, and just those
  rows of each plane — O(units since the last persist), not O(plane).
  Each file is one :func:`~repro.resilience.durable.durable_write`, so a
  kill mid-write leaves the previous good state; a torn ``*.tmp`` is
  never listed as a run or replayed, and the next write replaces it.
* ``repro scan --resume r0042`` validates the manifest against the
  resuming configuration via its
  :func:`~repro.obs.ledger.config_fingerprint` — the data-affecting
  config fields — and the caller's blank planes, replays the segments
  in order into those blanks and re-executes only the units not yet
  complete.  Bit-exactness with an uninterrupted run follows from
  per-unit determinism: journaled rows are byte-identical, and the
  remaining units recompute exactly what they always would.
* On completion the run is recorded under the reserved id and
  :meth:`Checkpointer.finish` removes the manifest, then the journal —
  a manifest existing *is* the statement "this run has not finished".
  A journal whose manifest is gone (a crash between the two removals)
  is not a run; the next fresh :meth:`Checkpointer.start` sweeps it.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.errors import CheckpointError
from repro.obs.ledger import RunLedger
from repro.resilience.durable import durable_write, tmp_path
from repro.resilience.planes import read_planes, write_planes

__all__ = [
    "ScanCheckpoint",
    "Checkpointer",
    "load_checkpoint",
    "list_checkpoints",
]

@dataclass
class ScanCheckpoint:
    """In-memory image of one checkpoint (manifest + replayed journal).

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

    def is_done(self, index: int) -> bool:
        return index in self._done_set()

    def _done_set(self) -> set[int]:
        return set(self.completed)


def _checkpoint_path(ledger: RunLedger, run_id: str) -> Path:
    return ledger.checkpoint_dir / f"{run_id}.npz"


def _journal_dir(manifest: Path) -> Path:
    """``<run_id>.journal`` beside ``<run_id>.npz`` — out of the
    ledger's ``r*.npz`` checkpoint glob."""
    return manifest.with_suffix(".journal")


def _segments(journal: Path) -> list[Path]:
    """The journal's segments in write order (torn ``*.tmp`` skipped)."""
    if not journal.is_dir():
        return []
    return sorted(journal.glob("[0-9]*.seg"), key=lambda p: int(p.stem))


def _read_manifest(
    path: Path,
) -> tuple[ScanCheckpoint, dict[str, tuple[tuple[int, ...], np.dtype]]]:
    """The run described by manifest ``path`` (no planes yet) and its
    plane layout ``{name: (shape, dtype)}``."""
    try:
        header, _ = read_planes(path, "checkpoint")
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
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


def _replay(journal: Path, arrays: dict[str, np.ndarray]) -> tuple[list[int], int]:
    """Apply every segment of ``journal`` to ``arrays`` in write order.

    Returns the completed unit indices (in completion order) and the
    number of the last segment, so the run appends after it.
    """
    completed: list[int] = []
    seen: set[int] = set()
    last = 0
    for path in _segments(journal):
        try:
            header, blocks = read_planes(path, "segment")
            rows = [int(r) for r in header["rows"]]
            units = [int(u) for u in header["units"]]
            if sorted(blocks) != sorted(arrays):
                raise ValueError(
                    f"planes {sorted(blocks)}, expected {sorted(arrays)}"
                )
            for name, block in blocks.items():
                plane = arrays[name]
                if block.dtype != plane.dtype or (
                    block.shape != (len(rows), *plane.shape[1:])
                ):
                    raise ValueError(
                        f"plane {name!r} block is {block.dtype}"
                        f"{block.shape} for {len(rows)} rows of "
                        f"{plane.dtype}{plane.shape}"
                    )
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint segment {path}: {exc}"
            ) from exc
        index = _row_index(rows)
        for name, block in blocks.items():
            arrays[name][index] = block
        for unit in units:
            if unit not in seen:
                seen.add(unit)
                completed.append(unit)
        last = int(path.stem)
    return completed, last


def load_checkpoint(path: str | Path) -> ScanCheckpoint:
    """Read one checkpoint — manifest plus journal — raising
    :class:`CheckpointError` when unreadable or malformed.

    The planes are the journal replayed into zeros of the manifest's
    layout: rows no segment covers read as zero.
    """
    path = Path(path)
    state, layout = _read_manifest(path)
    state.arrays = {
        name: np.zeros(shape, dtype) for name, (shape, dtype) in layout.items()
    }
    state.completed, _ = _replay(_journal_dir(path), state.arrays)
    return state


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
        arguments here so ``--resume`` can reconstruct the array).
        Ignored when resuming — the stored meta wins.
    min_save_seconds:
        Minimum seconds between the journal segments that
        :meth:`mark_done` writes.  ``0.0`` (the default) persists after
        every call — the strongest crash guarantee.  A segment costs
        O(units since the last one) plus a fixed file create and two
        fsyncs, so a run of many tiny units (a fleet shard's dies)
        raises this to bound that fixed cost: completed units still
        accumulate in memory on every ``mark_done`` and go out together
        in the next segment, a crash merely re-runs the units finished
        since the last persist, and resume stays bit-exact because
        re-run dies reproduce their planes from the same RNG
        fast-forward.  An explicit :meth:`save` always writes what is
        pending.
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
        self._segment = 0
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
        """The run's manifest, ``checkpoints/<run_id>.npz``."""
        return _checkpoint_path(self.ledger, self.run_id)

    @property
    def journal(self) -> Path:
        """The run's segment directory, ``checkpoints/<run_id>.journal``."""
        return _journal_dir(self.path)

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
        with the journal replayed into them).  On resume kind,
        fingerprint, unit count and plane layout must all match or the
        mismatch is refused with a :class:`CheckpointError` naming the
        difference.
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
                manifest = _checkpoint_path(self.ledger, run_id)
                self._sweep_journals(manifest)
                _journal_dir(manifest).mkdir(parents=True)
                # Writing the manifest inside the lock *is* the id
                # reservation — next_run_id scans this directory.  Its
                # directory fsync also makes the journal's entry durable.
                self._write_manifest(state)
            self._segment = 0
        # A reused Checkpointer must not carry the previous run's
        # completed-index cache or pending rows into a new run.
        self._done_seen = None
        self._pending_units, self._pending_rows = [], set()
        self._last_save = time.monotonic()
        self.state = state
        return state

    def _sweep_journals(self, manifest: Path) -> None:
        """Remove journals no manifest owns (call under the ledger lock).

        A crash between :meth:`finish`'s two removals leaves one; so
        does a run whose id is being reused after it finished
        unrecorded — its stale segments must never replay into the new
        run.
        """
        for journal in self.ledger.checkpoint_dir.glob("r*.journal"):
            if journal == _journal_dir(manifest) or not journal.with_suffix(
                ".npz"
            ).exists():
                shutil.rmtree(journal, ignore_errors=True)

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
        state, layout = _read_manifest(path)
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
        journal = _journal_dir(path)
        state.completed, self._segment = _replay(journal, state.arrays)
        journal.mkdir(exist_ok=True)
        return state

    # -- progress ------------------------------------------------------

    def mark_done(
        self, *indices: int, rows: int | slice | Iterable[int] | None = None
    ) -> None:
        """Record units ``indices`` complete; persist them in one segment.

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
            self._done_seen = state._done_set()
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
        """Persist the pending rows as one journal segment (never throttled).

        A no-op when nothing is pending: the journal already holds
        every row marked done.
        """
        state = self._require_state()
        if not self._pending_rows:
            return
        self._write_segment(state)
        self._pending_units, self._pending_rows = [], set()
        self._last_save = time.monotonic()

    def finish(self) -> str:
        """Close the run: remove the manifest, then the journal; return
        the run id.

        The caller records the final manifest under this id — after
        ``finish`` the ledger shows a completed run and no checkpoint.
        """
        state = self._require_state()
        path = _checkpoint_path(self.ledger, state.run_id)
        path.unlink(missing_ok=True)
        # A manifest write torn by a kill of an earlier generation.
        tmp_path(path).unlink(missing_ok=True)
        shutil.rmtree(_journal_dir(path), ignore_errors=True)
        self._done_seen = None
        self._pending_units, self._pending_rows = [], set()
        return state.run_id

    def _require_state(self) -> ScanCheckpoint:
        if self.state is None:
            raise CheckpointError("checkpointer not started")
        return self.state

    def _write_manifest(self, state: ScanCheckpoint) -> None:
        """The run's manifest: a plane-container header with no planes."""
        header = {
            "kind": "checkpoint",
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
        durable_write(
            _checkpoint_path(self.ledger, state.run_id),
            lambda fh: write_planes(fh, header, {}),
        )

    def _write_segment(self, state: ScanCheckpoint) -> None:
        """The next journal segment: the pending units and just their rows.

        A segment holds only the rows it completes, so the fsyncs, not
        the bytes, dominate its cost.
        """
        rows = sorted(self._pending_rows)
        index = _row_index(rows)
        header = {"kind": "segment", "units": self._pending_units, "rows": rows}
        blocks = {name: plane[index] for name, plane in state.arrays.items()}
        self._segment += 1
        durable_write(
            self.journal / f"{self._segment:06d}.seg",
            lambda fh: write_planes(fh, header, blocks),
        )


def _rows(rows: int | slice | Iterable[int]) -> Iterable[int]:
    if isinstance(rows, slice):
        return range(rows.start or 0, rows.stop, rows.step or 1)
    if isinstance(rows, (int, np.integer)):
        return (int(rows),)
    return (int(r) for r in rows)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")
