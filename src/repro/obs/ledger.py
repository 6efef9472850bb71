"""Run ledger: durable, append-only provenance for measurement runs.

The paper's artefact — the analog bitmap — earns its keep when maps are
compared **across** runs and dies to spot process drift.  That needs
provenance: which configuration, seed, technology and library version
produced which numbers.  A :class:`RunLedger` owns a directory
(``.repro-runs/`` by default) holding

- ``manifest.jsonl`` — one :class:`RunManifest` per line, append-only,
- ``artifacts/<run_id>.npz`` — the raw scan planes of runs recorded
  with an artifact, one scan run file (:mod:`repro.resilience.checkpoint`)
  each — what ``runs diff`` reloads for bitmap deltas.

A manifest freezes everything needed to trust or reproduce a run: the
value fields of the frozen :class:`~repro.measure.config.ScanConfig`
and their hash, RNG seed, technology card name, package version,
wall/CPU time, the folded :class:`~repro.measure.stats.ScanStats`, a
metrics snapshot, the trace path, and **scalars** — the per-run summary
statistics (capacitance mean/σ, code-histogram centroid, converter
flip-step size, throughput) that :mod:`repro.obs.drift` runs control
charts over.

Recording is opt-in and has one owner per run: attach a ledger to a
:class:`~repro.measure.config.ScanConfig` and the driver that runs —
``ArrayScanner.scan``, ``measure_wafer``, ``DiagnosisPipeline.run`` —
appends its manifest once (the fleet worker and ``merge_lot`` build
theirs and call :meth:`RunLedger.record`).  What only the caller knows,
a run label and a trace path, is set once on the :class:`RunLedger`
handle it attaches.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import LedgerError, MeasurementError, ScanMismatchError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (io -> scan -> config)
    from repro.bitmap.analog import AnalogBitmap
    from repro.diagnosis.pipeline import PipelineReport
    from repro.edram.array import EDRAMArray
    from repro.measure.config import ScanConfig
    from repro.measure.scan import ScanResult
    from repro.resilience.checkpoint import Checkpointer
    from repro.wafer import WaferModel, WaferReport

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "RunManifest",
    "RunDiff",
    "RunLedger",
    "config_fingerprint",
    "config_hash",
    "scan_scalars",
    "bitmap_scalars",
]

#: Default ledger directory, relative to the working directory.
DEFAULT_LEDGER_DIR = ".repro-runs"

_MANIFEST_NAME = "manifest.jsonl"
_ARTIFACT_DIR = "artifacts"
_CHECKPOINT_DIR = "checkpoints"
_LOCK_NAME = ".lock"
_FORMAT = 1

#: The head of a manifest line as :meth:`RunLedger.record` writes it:
#: ``RunManifest.to_dict`` keys ``format`` then ``run_id`` first, so the
#: id is readable without decoding the rest of the line.
_HEAD = rb'\{"format": \d+, "run_id": "([^"\\]*)", '
_LINE_HEADS = re.compile(rb"^" + _HEAD, re.MULTILINE)
_ANY_HEAD = re.compile(_HEAD)

#: How long :meth:`RunLedger.locked` waits for the advisory lock before
#: giving up with a :class:`LedgerError`.
LOCK_TIMEOUT_SECONDS = 10.0


# ---------------------------------------------------------------------------
# Provenance helpers
# ---------------------------------------------------------------------------


def config_fingerprint(config: "ScanConfig") -> dict[str, Any]:
    """The value fields of a scan config (observers excluded).

    Tracer/metrics/progress/ledger attachments change what is *recorded*
    about a run, never its data, so only the data-affecting fields enter
    the fingerprint — two runs with equal fingerprints are replays.
    Checkpoint resume and fleet shard merges key on it too.
    """
    return {
        "preflight": config.preflight,
        "force_engine": config.force_engine,
        "tier": config.tier,
        "technology": config.technology,
    }


def config_hash(config: "ScanConfig") -> str:
    """Short stable hash of :func:`config_fingerprint` (12 hex chars)."""
    canon = json.dumps(config_fingerprint(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@functools.cache
def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # lint: allow-broad-except  # pragma: no cover - metadata missing in odd installs
        return "unknown"


def scan_scalars(result: "ScanResult") -> dict[str, float]:
    """Per-run summary scalars of one scan — the drift engine's diet.

    All derived from the scan planes themselves (no calibration needed):

    - ``code_centroid`` / ``code_sigma`` — code-histogram centre and
      spread,
    - ``flip_step_mean`` / ``flip_step_p95`` — the converter's
      adjacent-cell code step distribution (granularity drift signal),
    - ``vgs_mean`` / ``vgs_sigma`` — the underlying shared-charge
      voltages,
    - ``degraded_cells`` / ``failed_cells`` — fallback-ladder quality
      counts (the drift engine alarms on non-zero ``failed_cells``),
    - throughput figures when the result carries :class:`ScanStats`.
    """
    codes = np.asarray(result.codes, dtype=float)
    vgs = np.asarray(result.vgs, dtype=float)
    quality = result.quality_counts()
    scalars = {
        "code_centroid": float(codes.mean()),
        "code_sigma": float(codes.std()),
        "vgs_mean": float(vgs.mean()),
        "vgs_sigma": float(vgs.std()),
        "degraded_cells": float(quality["degraded"]),
        "failed_cells": float(quality["failed"]),
    }
    if codes.shape[1] > 1:
        # Codes are integers 0..num_steps: the adjacent-cell steps fit a
        # narrow integer type and their statistics come from a
        # (num_steps + 1)-bin histogram, exactly.
        narrow = np.int16 if result.num_steps < 2**15 else np.int64
        steps = np.abs(np.diff(np.asarray(result.codes).astype(narrow), axis=1))
        histogram = np.bincount(steps.ravel())
        scalars["flip_step_mean"] = (
            int(histogram @ np.arange(len(histogram))) / steps.size
        )
        scalars["flip_step_p95"] = _histogram_percentile(histogram, 0.95)
    if result.stats is not None:
        scalars["wall_seconds"] = float(result.stats.wall_seconds)
        scalars["cells_per_second"] = float(result.stats.cells_per_second)
    return scalars


def _histogram_percentile(histogram: np.ndarray, q: float) -> float:
    """``np.percentile(values, 100 * q)`` of the integers counted in ``histogram``.

    numpy's default (linear) method, term for term: the virtual index
    ``(n − 1)·q`` between two order statistics, which a cumulative
    count finds without sorting.
    """
    n = int(histogram.sum())
    cumulative = np.cumsum(histogram)
    virtual = (n - 1) * q
    below = math.floor(virtual)
    if virtual >= n - 1:
        return float(len(histogram) - 1)
    a, b = (
        float(np.searchsorted(cumulative, k, side="right")) for k in (below, below + 1)
    )
    t = virtual - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def bitmap_scalars(bitmap: "AnalogBitmap") -> dict[str, float]:
    """Calibrated capacitance-map scalars (femtofarads, in-range cells)."""
    from repro.units import to_fF

    in_range = bitmap.in_range
    values = bitmap.abacus.mids[bitmap.codes[in_range]]
    if values.size == 0:
        return {"in_range_fraction": 0.0}
    return {
        "cap_mean_fF": float(to_fF(values.mean())),
        "cap_sigma_fF": float(to_fF(values.std())),
        "in_range_fraction": float(in_range.mean()),
    }


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """Provenance record of one recorded run (one ledger line).

    ``run_id`` and ``timestamp`` are assigned by the ledger at record
    time; everything else is supplied by the ``record_*`` builders.
    """

    kind: str
    run_id: str = ""
    timestamp: str = ""
    label: str = ""
    config: dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    seed: int | None = None
    tech: str = ""
    version: str = ""
    wall_seconds: float = 0.0
    cpu_seconds: float | None = None
    stats: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    trace_path: str | None = None
    artifact: str | None = None
    scalars: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (one manifest line)."""
        return {
            "format": _FORMAT,
            "run_id": self.run_id,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "label": self.label,
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tech": self.tech,
            "version": self.version,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "stats": self.stats,
            "metrics": self.metrics,
            "trace_path": self.trace_path,
            "artifact": self.artifact,
            "scalars": self.scalars,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        try:
            return cls(
                kind=str(data["kind"]),
                run_id=str(data["run_id"]),
                timestamp=str(data["timestamp"]),
                label=str(data.get("label", "")),
                config=dict(data.get("config", {})),
                config_hash=str(data.get("config_hash", "")),
                seed=None if data.get("seed") is None else int(data["seed"]),
                tech=str(data.get("tech", "")),
                version=str(data.get("version", "")),
                wall_seconds=float(data.get("wall_seconds", 0.0)),
                cpu_seconds=(
                    None if data.get("cpu_seconds") is None
                    else float(data["cpu_seconds"])
                ),
                stats=data.get("stats"),
                metrics=data.get("metrics"),
                trace_path=data.get("trace_path"),
                artifact=data.get("artifact"),
                scalars={k: float(v) for k, v in data.get("scalars", {}).items()},
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed run manifest: {data!r}") from exc


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


@dataclass
class RunDiff:
    """Structured comparison of two recorded runs.

    Attributes
    ----------
    a, b:
        The compared manifests (``b`` is the newer/candidate run).
    config_changes:
        ``{field: (a_value, b_value)}`` for differing config fields.
    scalar_deltas:
        ``{name: (a, b, b - a)}`` over the union of both scalar sets
        (missing side recorded as ``None``).
    metric_deltas:
        ``{name: (a, b, b - a)}`` for numeric metrics present in both
        snapshots (counter/gauge values, histogram means).
    bitmap:
        Per-cell code-delta statistics when both runs carry loadable,
        comparable scan artifacts; otherwise a dict with a ``"reason"``
        explaining why no bitmap delta was computed.
    """

    a: RunManifest
    b: RunManifest
    config_changes: dict[str, tuple[Any, Any]]
    scalar_deltas: dict[str, tuple[float | None, float | None, float | None]]
    metric_deltas: dict[str, tuple[float, float, float]]
    bitmap: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "a": self.a.run_id,
            "b": self.b.run_id,
            "config_changes": {
                k: list(v) for k, v in self.config_changes.items()
            },
            "scalar_deltas": {
                k: list(v) for k, v in self.scalar_deltas.items()
            },
            "metric_deltas": {
                k: list(v) for k, v in self.metric_deltas.items()
            },
            "bitmap": self.bitmap,
        }

    def format_text(self) -> str:
        """Human rendering: config, scalar, metric and bitmap sections."""
        lines = [f"runs diff: {self.a.run_id} -> {self.b.run_id}"]
        if self.config_changes:
            lines.append("config:")
            for name, (va, vb) in sorted(self.config_changes.items()):
                lines.append(f"  {name}: {va} -> {vb}")
        else:
            lines.append(f"config: identical (hash {self.b.config_hash})")
        lines.append("scalars:")
        for name, (va, vb, delta) in sorted(self.scalar_deltas.items()):
            if va is None or vb is None:
                lines.append(f"  {name}: {va} -> {vb} (one side missing)")
            else:
                lines.append(f"  {name}: {va:.6g} -> {vb:.6g} ({delta:+.6g})")
        if self.metric_deltas:
            lines.append("metrics:")
            for name, (va, vb, delta) in sorted(self.metric_deltas.items()):
                lines.append(f"  {name}: {va:.6g} -> {vb:.6g} ({delta:+.6g})")
        lines.append("bitmap:")
        for key, value in sorted(self.bitmap.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


class RunLedger:
    """Append-only run store rooted at a directory.

    Parameters
    ----------
    root:
        Ledger directory (created on first record).  Defaults to
        :data:`DEFAULT_LEDGER_DIR` in the working directory.
    label, trace_path:
        Stamped on every manifest the ``record_*`` builders make
        through this handle: the run's free-form label and where its
        trace was written, which only the caller knows.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_LEDGER_DIR,
        *,
        label: str = "",
        trace_path: str | None = None,
    ) -> None:
        self.root = Path(root)
        self.label = label
        self.trace_path = trace_path
        #: (inode, bytes, highest id number) of the manifest prefix
        #: :meth:`next_run_id` has already read, and the ids it holds.
        self._ids_read: tuple[int, int, int] = (-1, 0, 0)
        self._ids: set[str] = set()

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    @property
    def artifact_dir(self) -> Path:
        return self.root / _ARTIFACT_DIR

    @property
    def checkpoint_dir(self) -> Path:
        """Where unfinished (checkpointed) runs park their state."""
        return self.root / _CHECKPOINT_DIR

    def checkpoint_files(self) -> list[Path]:
        """Checkpoint files of unfinished runs, sorted by name.

        The glob skips a header write in flight (or torn by a kill),
        ``rNNNN.npz.tmp``.
        """
        if not self.checkpoint_dir.exists():
            return []
        return sorted(self.checkpoint_dir.glob("r*.npz"))

    # -- locking --------------------------------------------------------

    @contextmanager
    def locked(self, timeout: float = LOCK_TIMEOUT_SECONDS) -> Iterator[None]:
        """Hold the ledger's advisory file lock for the ``with`` block.

        Serialises run-id allocation and manifest appends across
        processes, so two concurrent ``--record`` runs cannot interleave
        half-written lines or claim the same id.  The wait is bounded:
        a holder that wedges turns into a clear :class:`LedgerError`
        ("timed out waiting for ledger lock") instead of a silent hang.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + timeout
        # "a+", not "w": opening the lock file must not truncate the
        # current holder's pid out of it while they still hold the lock
        # — the timeout message below reads it to name the culprit.
        with open(self.root / _LOCK_NAME, "a+") as fh:
            while True:
                try:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        holder = _lock_holder(fh)
                        raise LedgerError(
                            f"timed out waiting for ledger lock on {self.root} "
                            f"after {timeout:g} s (held by {holder} — another "
                            "repro process recording? stale holder?)"
                        ) from None
                    time.sleep(0.01)
            try:
                fh.seek(0)
                fh.truncate()
                fh.write(f"{os.getpid()}\n")
                fh.flush()
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def next_run_id(self) -> str:
        """The next free ``rNNNN`` id (call while holding :meth:`locked`).

        Scans both the manifest *and* the checkpoint directory, so an
        unfinished checkpointed run keeps its reserved id even though
        no manifest line exists for it yet.  Only the run ids are read
        (see :meth:`_highest_recorded`), and only those recorded since
        this ledger last looked.
        """
        highest = self._highest_recorded()
        for path in self.checkpoint_files():
            highest = max(highest, _run_number(path.stem))
        return f"r{highest + 1:04d}"

    # -- reading --------------------------------------------------------

    def _highest_recorded(self) -> int:
        """The highest ``rNNNN`` number recorded in the manifest (the
        ids themselves are kept in ``_ids``).

        The manifest is append-only, so the ledger remembers how far it
        has read and reads only the whole lines appended since (a torn
        last line is no record); those it reads off their heads, without
        decoding JSON.  The shortcut holds only while every new line is
        one whole manifest as :meth:`record` writes it: one head, at the
        start, and ending ``}``.  A hand-edited line falls back to
        :meth:`runs`, which raises :class:`LedgerError` on foreign data.
        """
        try:
            fh = open(self.manifest_path, "rb")
        except FileNotFoundError:
            self._ids_read, self._ids = (-1, 0, 0), set()
            return 0
        with fh:
            stat = os.fstat(fh.fileno())
            inode, offset, highest = self._ids_read
            if stat.st_ino != inode or stat.st_size < offset:
                offset, highest, self._ids = 0, 0, set()  # a different file: read it all
            fh.seek(offset)
            new = fh.read()
        new = new[: new.rfind(b"\n") + 1]
        ids = [i.decode() for i in _LINE_HEADS.findall(new)]
        lines = new.count(b"\n")
        if len(ids) == lines == new.count(b"}\n") == len(_ANY_HEAD.findall(new)):
            self._ids.update(ids)
            highest = max([highest, *map(_run_number, ids)])
        else:
            self._ids = {m.run_id for m in self.runs()}
            highest = max([0, *map(_run_number, self._ids)])
        self._ids_read = (stat.st_ino, offset + len(new), highest)
        return highest

    def runs(self) -> list[RunManifest]:
        """All manifests in record order (empty for a fresh ledger).

        An unterminated last line is a torn append, not a record (the
        next :meth:`record` cuts it); a malformed whole line raises.
        """
        if not self.manifest_path.exists():
            return []
        manifests = []
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n") or not line.strip():
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(
                        f"{self.manifest_path}:{lineno} is not valid JSON "
                        f"(foreign or hand-edited line?): {exc}"
                    ) from exc
                manifests.append(RunManifest.from_dict(data))
        return manifests

    def __len__(self) -> int:
        return len(self.runs())

    def get(self, run_id: str) -> RunManifest:
        """The manifest recorded under ``run_id``."""
        for manifest in self.runs():
            if manifest.run_id == run_id:
                return manifest
        known = ", ".join(m.run_id for m in self.runs()) or "(none)"
        raise LedgerError(f"no run {run_id!r} in {self.root} (known: {known})")

    def latest(self, n: int = 1, kind: str | None = None) -> list[RunManifest]:
        """The last ``n`` manifests (optionally of one kind), oldest first."""
        manifests = self.runs()
        if kind is not None:
            manifests = [m for m in manifests if m.kind == kind]
        return manifests[-n:]

    def series(
        self, scalar: str, kind: str | None = None
    ) -> list[tuple[str, float]]:
        """``(run_id, value)`` for every run carrying ``scalar``, in order."""
        out = []
        for manifest in self.runs():
            if kind is not None and manifest.kind != kind:
                continue
            if scalar in manifest.scalars:
                out.append((manifest.run_id, manifest.scalars[scalar]))
        return out

    def load_artifact(self, manifest: RunManifest) -> "ScanResult":
        """Reload the scan planes recorded with ``manifest``."""
        if manifest.artifact is None:
            raise LedgerError(f"run {manifest.run_id} recorded no scan artifact")
        from repro.io import load_scan

        path = self.root / manifest.artifact
        try:
            return load_scan(path)
        except MeasurementError as exc:
            raise LedgerError(
                f"run {manifest.run_id} artifact at {path} is unreadable: {exc}"
            ) from exc

    # -- writing --------------------------------------------------------

    def record(
        self,
        manifest: RunManifest,
        scan: "ScanResult | None" = None,
        *,
        checkpoint: "Checkpointer | None" = None,
    ) -> RunManifest:
        """Append ``manifest`` (assigning run id and timestamp); the one
        place a run ends.

        Id allocation and the append happen under the ledger's advisory
        lock (:meth:`locked`), so concurrent recorders serialise
        cleanly; the append cuts a torn last line and is fsynced before
        the lock is released.

        When ``scan`` is given its planes are saved under
        ``artifacts/<run_id>.npz`` and the relative path recorded, so
        ``runs diff`` can later compute per-cell bitmap deltas.

        A ``checkpoint`` ends here, in one order: it is kept as the
        artifact (flush, link), the line is appended, then
        :meth:`~repro.resilience.Checkpointer.finish` unlinks it.  The
        run keeps the id the checkpoint reserved in this ledger (else a
        fresh id, its planes written whole).  A run the manifest already
        holds — recorded, then interrupted before the unlink — is only
        finished, and its manifest returned.
        """
        from repro.resilience.durable import durable_append

        self.root.mkdir(parents=True, exist_ok=True)
        manifest.timestamp = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        if not manifest.version:
            manifest.version = _package_version()
        held = self._reserved(checkpoint)
        with self.locked():
            if held is None:
                manifest.run_id = self.next_run_id()
            else:
                manifest.run_id = held.run_id
                self._highest_recorded()  # reads up to the last whole line
            if manifest.run_id in self._ids:
                manifest = self.get(manifest.run_id)
            else:
                if scan is not None:
                    from repro.io import save_scan

                    self.artifact_dir.mkdir(parents=True, exist_ok=True)
                    path = self.artifact_dir / f"{manifest.run_id}.npz"
                    # A checkpoint begun before scan headers carried
                    # num_steps is no scan run file.
                    if held is not None and held.state is not None and (
                        held.state.meta.get("num_steps") == scan.num_steps
                    ):
                        held.keep(path)
                    else:
                        save_scan(scan, path)
                    manifest.artifact = str(path.relative_to(self.root))
                line = json.dumps(manifest.to_dict()) + "\n"
                durable_append(
                    self.manifest_path, line.encode("utf-8"),
                    keep=self._ids_read[1],
                )
        if checkpoint is not None:
            checkpoint.finish()
        return manifest

    def _reserved(self, checkpoint: "Checkpointer | None") -> "Checkpointer | None":
        """``checkpoint`` when it reserved its run id in this ledger."""
        if checkpoint is None or checkpoint.state is None:
            return None
        if checkpoint.ledger.root.resolve() != self.root.resolve():
            return None
        return checkpoint

    def _base_manifest(
        self,
        kind: str,
        config: "ScanConfig | None",
        source: "EDRAMArray | WaferModel | None",
        *,
        wall_seconds: float,
        cpu_seconds: float | None,
    ) -> RunManifest:
        """A manifest stamped with this handle's label and trace path;
        the measured ``source`` supplies the seed and the card name."""
        manifest = RunManifest(
            kind=kind,
            label=self.label,
            seed=None if source is None else source.seed,
            tech="" if source is None else source.tech.name,
            wall_seconds=wall_seconds,
            cpu_seconds=cpu_seconds,
            trace_path=self.trace_path,
        )
        if config is not None:
            manifest.config = config_fingerprint(config)
            manifest.config_hash = config_hash(config)
            if config.metrics.enabled:
                manifest.metrics = config.metrics.to_dict()
        return manifest

    def record_scan(
        self,
        result: "ScanResult",
        config: "ScanConfig | None" = None,
        *,
        array: "EDRAMArray | None" = None,
        bitmap: "AnalogBitmap | None" = None,
        cpu_seconds: float | None = None,
        checkpoint: "Checkpointer | None" = None,
    ) -> RunManifest:
        """Record one array scan (optionally with its calibrated bitmap).

        The scanned ``array`` supplies the seed it was built with, its
        technology card and its backend's per-run scalars
        (:meth:`~repro.technologies.base.CellTechnology.extra_scalars`,
        e.g. FeCap polarization mean, 1T retention), which the drift
        engine charts with the scan's own.
        """
        wall = result.stats.wall_seconds if result.stats is not None else 0.0
        manifest = self._base_manifest(
            "scan", config, array, wall_seconds=wall, cpu_seconds=cpu_seconds
        )
        manifest.stats = (
            result.stats.to_dict() if result.stats is not None else None
        )
        manifest.scalars = scan_scalars(result)
        if bitmap is not None:
            manifest.scalars.update(bitmap_scalars(bitmap))
        if array is not None:
            from repro.technologies import get as get_technology

            extra = get_technology(array.technology).extra_scalars(array)
            manifest.scalars.update({k: float(v) for k, v in extra.items()})
        return self.record(manifest, scan=result, checkpoint=checkpoint)

    def record_wafer(
        self,
        report: "WaferReport",
        config: "ScanConfig | None" = None,
        *,
        model: "WaferModel | None" = None,
        wall_seconds: float = 0.0,
        cpu_seconds: float | None = None,
        checkpoint: "Checkpointer | None" = None,
    ) -> RunManifest:
        """Record one wafer measurement (:meth:`WaferReport.scalars`
        plus die counts — ``dies`` GOOD, ``failed_dies`` FAILED — no
        artifact); ``model`` supplies seed and card."""
        manifest = self._base_manifest(
            "wafer", config, model,
            wall_seconds=wall_seconds, cpu_seconds=cpu_seconds,
        )
        dies = len(report.dies)
        manifest.scalars = {**report.scalars(), "dies": float(dies),
                            "failed_dies": float(len(report.failed))}
        if wall_seconds > 0:
            manifest.scalars["dies_per_second"] = dies / wall_seconds
        return self.record(manifest, checkpoint=checkpoint)

    def record_diagnosis(
        self,
        report: "PipelineReport",
        config: "ScanConfig | None" = None,
        *,
        array: "EDRAMArray | None" = None,
        wall_seconds: float = 0.0,
        cpu_seconds: float | None = None,
    ) -> RunManifest:
        """Record one diagnosis pipeline run (scan + process scalars);
        ``array`` supplies seed and card."""
        manifest = self._base_manifest(
            "diagnosis", config, array,
            wall_seconds=wall_seconds, cpu_seconds=cpu_seconds,
        )
        scan = report.scan
        manifest.stats = scan.stats.to_dict() if scan.stats is not None else None
        manifest.scalars = scan_scalars(scan)
        manifest.scalars.update(bitmap_scalars(report.analog))
        process = report.process
        manifest.scalars.update({
            "cpk": float(process.cpk) if process.cpk != float("inf") else 1e6,
            "digital_fails": float(report.digital.fail_count),
        })
        return self.record(manifest, scan=scan)

    # -- comparing ------------------------------------------------------

    def diff(self, a_id: str, b_id: str) -> RunDiff:
        """Compare two recorded runs (config, scalars, metrics, bitmap)."""
        a, b = self.get(a_id), self.get(b_id)
        config_changes = {
            key: (a.config.get(key), b.config.get(key))
            for key in sorted(set(a.config) | set(b.config))
            if a.config.get(key) != b.config.get(key)
        }
        scalar_deltas: dict[str, tuple[float | None, float | None, float | None]] = {}
        for name in sorted(set(a.scalars) | set(b.scalars)):
            va, vb = a.scalars.get(name), b.scalars.get(name)
            delta = None if va is None or vb is None else vb - va
            scalar_deltas[name] = (va, vb, delta)
        metric_deltas = _metric_deltas(a.metrics, b.metrics)
        bitmap = self._bitmap_delta(a, b)
        return RunDiff(
            a=a, b=b,
            config_changes=config_changes,
            scalar_deltas=scalar_deltas,
            metric_deltas=metric_deltas,
            bitmap=bitmap,
        )

    def _bitmap_delta(self, a: RunManifest, b: RunManifest) -> dict[str, Any]:
        if a.artifact is None or b.artifact is None:
            return {"reason": "one or both runs recorded no scan artifact"}
        try:
            scan_a = self.load_artifact(a)
            scan_b = self.load_artifact(b)
        except LedgerError as exc:
            return {"reason": str(exc)}
        try:
            delta = scan_b.diff(scan_a)
        except ScanMismatchError as exc:
            return {"reason": str(exc)}
        return {
            "cells": int(delta.size),
            "cells_changed": int((delta != 0).sum()),
            "mean_code_delta": float(delta.mean()),
            "mean_abs_code_delta": float(np.abs(delta).mean()),
            "max_abs_code_delta": int(np.abs(delta).max()),
        }


def _lock_holder(fh) -> str:
    """Best-effort description of whoever wrote the lock file last."""
    try:
        fh.seek(0)
        pid = fh.read().strip()
    except OSError:  # pragma: no cover - lock file unreadable mid-spin
        pid = ""
    if not pid.isdigit():
        return "an unknown process"
    try:
        os.kill(int(pid), 0)
        liveness = "alive"
    except ProcessLookupError:
        liveness = "dead"
    except (PermissionError, OSError):  # pragma: no cover - other-uid holder
        liveness = "alive"
    return f"pid {pid} ({liveness})"


def _run_number(run_id: str) -> int:
    """The numeric part of an ``rNNNN`` id (0 for anything else)."""
    if run_id.startswith("r") and run_id[1:].isdigit():
        return int(run_id[1:])
    return 0


def _metric_deltas(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> dict[str, tuple[float, float, float]]:
    """Numeric deltas over metric names present in both snapshots."""
    if not a or not b:
        return {}
    out: dict[str, tuple[float, float, float]] = {}
    for name in sorted(set(a) & set(b)):
        va, vb = _metric_value(a[name]), _metric_value(b[name])
        if va is not None and vb is not None:
            out[name] = (va, vb, vb - va)
    return out


def _metric_value(record: Any) -> float | None:
    """The scalar a metric dict contributes to a diff (value or mean)."""
    if not isinstance(record, dict):
        return None
    for key in ("value", "mean"):
        value = record.get(key)
        if isinstance(value, (int, float)) and value == value:  # NaN-safe
            return float(value)
    return None
