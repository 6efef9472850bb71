"""Checkpoint/resume: an interrupted run is a partial result, not a loss.

A million-cell wafer run that dies at 97% — power cut, pre-empted batch
job, plain Ctrl-C — must not restart from zero.  The checkpoint story:

* A run that checkpoints **reserves its run id up front** (under the
  ledger's advisory lock) and persists its partial planes to
  ``<ledger>/checkpoints/<run_id>.npz`` after every completed unit of
  work (die for wafer runs); a serial kernel scan completes its macros
  one macro-row slab at a time and persists once per slab.  Writes are
  atomic (tmp + rename), so a kill mid-save leaves the previous good
  state; the torn ``<run_id>.tmp.npz`` is never listed as a run and is
  removed when that run resumes or finishes.
* ``repro scan --resume r0042`` reloads that file, validates it against
  the resuming configuration via a **resume fingerprint** — the
  data-affecting config fields *excluding* ``jobs``, because worker
  count never changes the planes — and re-executes only the units not
  yet marked complete.  Bit-exactness with an uninterrupted run follows
  from per-unit determinism: completed planes are byte-identical, and
  the remaining units recompute exactly what they always would.
* On completion the manifest is recorded under the reserved id and the
  checkpoint file is deleted — a checkpoint file existing *is* the
  statement "this run has not finished".

The payload is a single ``.npz``: named planes plus one JSON ``meta``
string (fingerprint, completed indices, and caller metadata such as the
CLI's array-rebuild arguments or the wafer's per-die state).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CheckpointError
from repro.obs.ledger import RunLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.config import ScanConfig

__all__ = [
    "ScanCheckpoint",
    "Checkpointer",
    "resume_fingerprint",
    "load_checkpoint",
    "list_checkpoints",
]

_FORMAT = 1


def resume_fingerprint(config: "ScanConfig") -> dict[str, Any]:
    """Config fields a resumed run must replay exactly.

    ``jobs`` is deliberately excluded: parallelism changes wall-clock,
    never planes (the bit-exactness contract pinned by the scan perf
    tests), so a run checkpointed at ``jobs=8`` may legitimately resume
    at ``jobs=1`` on a smaller machine.
    """
    from repro.obs.ledger import config_fingerprint

    fingerprint = config_fingerprint(config)
    fingerprint.pop("jobs", None)
    return fingerprint


@dataclass
class ScanCheckpoint:
    """In-memory image of one checkpoint file.

    ``arrays`` holds the partial result planes (written into in place
    by the run as units complete); ``completed`` lists the finished
    unit indices in completion order; ``meta`` is caller-owned JSON
    state (array-rebuild args, wafer die records, ...).
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


def _tmp_path(ledger: RunLedger, run_id: str) -> Path:
    return ledger.checkpoint_dir / f"{run_id}.tmp.npz"


def load_checkpoint(path: str | Path) -> ScanCheckpoint:
    """Read one checkpoint file, raising :class:`CheckpointError` when
    unreadable or malformed."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            payload = json.loads(str(data["meta"]))
            arrays = {
                key: np.array(data[key]) for key in data.files if key != "meta"
            }
    except CheckpointError:
        raise
    except Exception as exc:  # lint: allow-broad-except - wrapped and re-raised
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    try:
        if int(payload["format"]) != _FORMAT:
            raise CheckpointError(
                f"checkpoint {path} has format {payload['format']}, "
                f"expected {_FORMAT}"
            )
        return ScanCheckpoint(
            kind=str(payload["kind"]),
            run_id=str(payload["run_id"]),
            fingerprint=dict(payload["fingerprint"]),
            total=int(payload["total"]),
            completed=[int(i) for i in payload["completed"]],
            arrays=arrays,
            meta=dict(payload.get("meta", {})),
            created=str(payload.get("created", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc


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
        Minimum seconds between the atomic persists that
        :meth:`mark_done` triggers.  ``0.0`` (the default) persists
        after every unit — the strongest crash guarantee.  A fleet
        shard raises this to bound checkpoint I/O on large wafers:
        completed units still accumulate in memory on every
        ``mark_done``, a crash merely re-runs the units finished since
        the last persist, and resume stays bit-exact because re-run
        dies reproduce their planes from the same RNG fast-forward.
        Once throttled, the gap also adapts to the measured write cost
        (a persist is deferred until it would cost at most
        ``_MAX_SAVE_FRACTION`` of the elapsed runtime), so checkpoint
        I/O stays a bounded fraction of the run no matter how large
        the planes grow.  An explicit :meth:`save` always writes,
        throttle or not.
    """

    #: With throttling on, persists wait until their measured write
    #: cost is at most this fraction of the time since the last one.
    _MAX_SAVE_FRACTION = 0.05

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
        self._last_save: float | None = None
        self._save_cost = 0.0
        self._done_seen: set[int] | None = None

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
        """Open the run: reserve a fresh id, or reload + validate ``resume``.

        On resume the loaded planes replace the caller's blanks (the
        caller keeps writing into ``state.arrays``); kind, fingerprint,
        unit count and array shapes must all match or the mismatch is
        refused with a :class:`CheckpointError` naming the difference.
        """
        if "meta" in arrays:
            raise CheckpointError("array name 'meta' is reserved")
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
                # Writing the file inside the lock *is* the id
                # reservation — next_run_id scans this directory.
                began = time.monotonic()
                self._write(state)
                self._last_save = time.monotonic()
                self._save_cost = self._last_save - began
        # A save torn by an earlier kill of this run is superseded.
        _tmp_path(self.ledger, state.run_id).unlink(missing_ok=True)
        # A reused Checkpointer must not carry the previous run's
        # completed-index cache into a new run.
        self._done_seen = None
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
            known = ", ".join(c.run_id for c in list_checkpoints(self.ledger))
            raise CheckpointError(
                f"no checkpoint {self.resume!r} in {self.ledger.checkpoint_dir} "
                f"(unfinished runs: {known or '(none)'})"
            )
        state = load_checkpoint(path)
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
        for name, blank in arrays.items():
            stored = state.arrays.get(name)
            if stored is None or stored.shape != blank.shape:
                raise CheckpointError(
                    f"checkpoint {state.run_id} plane {name!r} has shape "
                    f"{None if stored is None else stored.shape}, "
                    f"expected {blank.shape} — different array geometry?"
                )
        return state

    # -- progress ------------------------------------------------------

    def mark_done(self, *indices: int) -> None:
        """Record units ``indices`` complete and persist the state once.

        A scan passes a whole macro-row slab; wafer runs pass one die.

        With ``min_save_seconds`` set, the in-memory record always
        updates but the persist is skipped while the throttle window is
        open — the durable checkpoint then trails the live run by at
        most one window of work.
        """
        state = self._require_state()
        # Membership via a cached set — rebuilding one from the
        # completed list per unit would make a long run quadratic.
        if self._done_seen is None:
            self._done_seen = state._done_set()
        for index in indices:
            if index not in self._done_seen:
                state.completed.append(index)
                self._done_seen.add(index)
        if self.min_save_seconds > 0.0 and self._last_save is not None:
            gap = max(
                self.min_save_seconds,
                self._save_cost / self._MAX_SAVE_FRACTION,
            )
            if time.monotonic() - self._last_save < gap:
                return
        self.save()

    def save(self) -> None:
        """Persist the current state atomically (never throttled)."""
        began = time.monotonic()
        self._write(self._require_state())
        self._last_save = time.monotonic()
        self._save_cost = self._last_save - began

    def finish(self) -> str:
        """Close the run: delete the checkpoint file, return the run id.

        The caller records the final manifest under this id — after
        ``finish`` the ledger shows a completed run and no checkpoint.
        """
        state = self._require_state()
        _checkpoint_path(self.ledger, state.run_id).unlink(missing_ok=True)
        _tmp_path(self.ledger, state.run_id).unlink(missing_ok=True)
        self._done_seen = None
        return state.run_id

    def _require_state(self) -> ScanCheckpoint:
        if self.state is None:
            raise CheckpointError("checkpointer not started")
        return self.state

    def _write(self, state: ScanCheckpoint) -> None:
        directory = self.ledger.checkpoint_dir
        directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "format": _FORMAT,
                "kind": state.kind,
                "run_id": state.run_id,
                "fingerprint": state.fingerprint,
                "total": state.total,
                "completed": state.completed,
                "meta": state.meta,
                "created": state.created,
                "updated": _now(),
            }
        )
        tmp = _tmp_path(self.ledger, state.run_id)
        np.savez_compressed(tmp, meta=np.array(payload), **state.arrays)
        os.replace(tmp, _checkpoint_path(self.ledger, state.run_id))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")
