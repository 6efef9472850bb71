"""Crash-safe lot merge: shard results → one lot-level artifact.

The merge is the fleet's trust boundary.  Shards may have died, been
respawned, or failed outright; the merge must still produce a lot whose
measured planes are **bit-exact** with an unsharded run, whose missing
coverage is explicit (FAILED die quality, never silent gaps), and whose
provenance is consistent (every shard measured under the same config
fingerprint, or the merge refuses).  Concretely:

- the shard partition recorded in ``fleet.json`` is re-validated by
  :func:`~repro.fleet.partition.validate_partition` (the checker the
  FLT lint rules share) — a hand-edited or corrupt plan with an overlap
  or gap is refused before any plane is touched,
- every shard result's config fingerprint (and wafer parameters) must
  equal the fleet's — mixing results from different configurations is
  a :class:`~repro.errors.FleetError`, not a quiet wrong answer,
- a shard result is the shard's finished run file (its kept
  checkpoint); its units must be the dies ``[start, stop)``, each once,
  and it holds only that slice of each plane, which the merge scatters,
- writes are durable (tmp, fsync, rename) and the merge is **idempotent**:
  re-running it over the same shard results produces byte-identical
  ``lot.npz`` / ``lot.json`` (no timestamps inside — provenance time
  lives in the run-ledger manifest, not the artifact),
- lot scalars (capacitance statistics, radial regression, zone ring
  means, failure coverage) feed the EWMA/CUSUM drift engine under
  ``kind="lot"`` so cross-fab / cross-lot drift charts include the
  spatial signatures the paper's process-monitoring use case needs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError, FleetError
from repro.fleet.lease import read_lease
from repro.fleet.partition import validate_partition
from repro.resilience.checkpoint import read_run
from repro.resilience.durable import durable_write
from repro.resilience.planes import write_planes
from repro.wafer import DieQuality, WaferModel, WaferReport

__all__ = ["LotMerge", "merge_lot", "lot_scalars"]

#: ``lot.json`` format version.
_LOT_FORMAT = 1


@dataclass
class LotMerge:
    """The merged lot: full wafer planes plus provenance and health."""

    state: str  #: healthy / degraded / failed
    total_dies: int
    die_means: np.ndarray
    die_sigmas: np.ndarray
    die_vgs: np.ndarray
    die_codes: np.ndarray
    die_cell_quality: np.ndarray
    die_quality: np.ndarray
    scalars: dict[str, float] = field(default_factory=dict)
    shard_runs: dict[str, str | None] = field(default_factory=dict)
    failed_ranges: list[tuple[int, int]] = field(default_factory=list)
    run_id: str | None = None

    @property
    def exit_code(self) -> int:
        from repro.fleet.orchestrator import fleet_exit_code

        return fleet_exit_code(self.state)


def lot_scalars(
    sites: list[tuple[int, int, float]],
    die_means: np.ndarray,
    die_sigmas: np.ndarray,
    die_quality: np.ndarray,
    diameter: int,
    respawns: int = 0,
) -> dict[str, float]:
    """Lot-level drift scalars: coverage plus the measured dies'
    :meth:`~repro.wafer.WaferReport.scalars`.

    Failed (unmeasured) dies are excluded from the physics statistics —
    their NaN placeholders must not poison the charts — and surface
    instead through ``failed_dies`` / ``measured_fraction``, which the
    drift engine alarms on directly.
    """
    good = die_quality == int(DieQuality.GOOD)
    total, measured = len(sites), int(good.sum())
    scalars: dict[str, float] = {
        "dies": float(total),
        "failed_dies": float(total - measured),
        "measured_fraction": measured / total if total else 0.0,
        "shard_respawns": float(respawns),
    }
    if measured:
        report = WaferReport.from_planes(
            sites, die_means, die_sigmas, diameter, die_quality
        )
        scalars.update(report.scalars())
    return scalars


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: exists, owned by someone else
        return True
    return True


def _live_worker_pids(state: dict[str, Any]) -> list[int]:
    """PIDs of shard workers whose lease still belongs to a live process.

    A fleet.json stuck at ``running`` (the orchestrator itself crashed)
    is only genuinely live if some worker's lease is still in state
    ``running`` *and* its recorded pid exists — a dead pid means the
    worker is gone and its on-disk results are final.
    """
    pids = []
    for paths in state.get("paths", {}).values():
        lease = read_lease(paths["lease_path"])
        if lease is None or lease.state != "running":
            continue
        if _pid_alive(lease.pid):
            pids.append(lease.pid)
    return sorted(pids)


def merge_lot(
    root: str | Path,
    *,
    ledger=None,
    label: str = "",
    force: bool = False,
) -> LotMerge:
    """Merge one fleet root's shard results into the lot artifact.

    Reads ``fleet.json``, validates partition and fingerprints, fills
    retry-exhausted shards' ranges with FAILED die quality, writes
    ``lot.npz`` + ``lot.json`` durably, and (when ``ledger`` is
    given) records a ``kind="lot"`` manifest carrying the lot scalars
    for the drift engine.  Idempotent: merging again without new shard
    results rewrites byte-identical artifacts.

    A fleet whose ``fleet.json`` still says ``running`` is refused only
    while some shard worker is provably alive (a ``running`` lease whose
    pid exists) — a crashed orchestrator leaves ``running`` behind
    forever, and crash-safety means those shards' completed results must
    still merge.  ``force=True`` merges even past live workers (their
    in-flight ranges surface as FAILED coverage, never partial planes).
    """
    from repro.fleet.orchestrator import fleet_state

    root = Path(root)
    state = fleet_state(root)
    if state.get("state") == "running" and not force:
        live = _live_worker_pids(state)
        if live:
            raise FleetError(
                f"fleet at {root} is still running (live shard worker "
                f"pid(s) {', '.join(map(str, live))}); merge after it "
                "completes, or pass force=True to merge anyway"
            )
    total_dies = int(state["total_dies"])
    partition = [list(entry) for entry in state["partition"]]
    validate_partition(partition, total_dies)
    fleet_print = state["fingerprint"]

    wafer_kwargs = dict(fleet_print["wafer"])
    model = WaferModel(**wafer_kwargs)
    planes = model.die_planes(total_dies)
    shard_runs: dict[str, str | None] = {}
    failed_ranges: list[tuple[int, int]] = []
    respawns = 0
    statuses = {
        int(s["shard_id"]): s for s in state.get("shard_status", [])
    }
    for shard_id, start, stop in partition:
        key = f"s{shard_id:02d}"
        status = statuses.get(shard_id, {})
        respawns += int(status.get("respawns", 0))
        result_path = Path(state["paths"][key]["result_path"])
        shard_done = status.get("state") == "done"
        if not shard_done and state.get("state") == "running":
            # Crashed orchestrator: shard_status froze at "running",
            # but a worker that finished flipped its own lease to done
            # (its last act) — trust that over the stale fleet.json.
            lease = read_lease(state["paths"][key]["lease_path"])
            shard_done = lease is not None and lease.state == "done"
        if not shard_done or not result_path.exists():
            failed_ranges.append((start, stop))
            shard_runs[key] = None
            continue
        try:
            run = read_run(result_path, "shard")
        except CheckpointError as exc:
            raise FleetError(f"unreadable shard result {result_path}: {exc}") from exc
        config = {k: v for k, v in run.fingerprint.items() if k != "die_range"}
        if config != fleet_print["config"]:
            raise FleetError(
                f"shard {shard_id} measured under config {config} but the "
                f"fleet ran {fleet_print['config']}; refusing to merge "
                "mixed lots"
            )
        if run.meta.get("wafer") != fleet_print["wafer"]:
            raise FleetError(
                f"shard {shard_id} fabricated wafer {run.meta.get('wafer')} "
                f"but the fleet planned {fleet_print['wafer']}; refusing "
                "to merge mixed lots"
            )
        units = sorted(run.completed)
        if units != list(range(start, stop)):
            raise FleetError(
                f"shard {shard_id} result completes {len(units)} dies "
                f"(first {units[:3]}), not the dies [{start}, {stop}) "
                "the partition assigns, each once"
            )
        arrays = run.arrays
        if sorted(arrays) != sorted(planes):
            raise FleetError(
                f"shard {shard_id} result holds planes {sorted(arrays)}, "
                f"the lot needs {sorted(planes)}"
            )
        for name, lot_plane in planes.items():
            if arrays[name].shape != lot_plane[start:stop].shape:
                raise FleetError(
                    f"shard {shard_id} result plane {name!r} has shape "
                    f"{arrays[name].shape}, but its range [{start}, {stop}) "
                    f"holds {stop - start} dies"
                )
        shard_runs[key] = run.run_id
        for name, array in arrays.items():
            planes[name][start:stop] = array

    for start, stop in failed_ranges:  # means and sigmas stay NaN
        planes["die_quality"][start:stop] = int(DieQuality.FAILED)

    scalars = lot_scalars(
        model.sites(),
        planes["die_means"],
        planes["die_sigmas"],
        planes["die_quality"],
        diameter=model.diameter,
        respawns=respawns,
    )

    measured = int((planes["die_quality"] == int(DieQuality.GOOD)).sum())
    if measured == total_dies:
        lot_state = "healthy"
    elif measured == 0:
        lot_state = "failed"
    else:
        lot_state = "degraded"

    lot_meta = {
        "state": lot_state,
        "label": label or state.get("label", ""),
        "total_dies": total_dies,
        "partition": partition,
        "fingerprint": fleet_print,
        "shard_runs": shard_runs,
        "failed_ranges": [list(r) for r in sorted(failed_ranges)],
        "scalars": scalars,
    }
    durable_write(root / "lot.npz", lambda fh: write_planes(
        fh, {"kind": "lot", **lot_meta}, planes
    ))
    text = json.dumps(
        {"format": _LOT_FORMAT, **lot_meta}, indent=2, sort_keys=True
    ) + "\n"
    durable_write(root / "lot.json", lambda fh: fh.write(text.encode("utf-8")))

    run_id = None
    if ledger is not None:
        from repro.obs.ledger import RunManifest

        manifest = RunManifest(
            kind="lot",
            label=label or state.get("label", ""),
            config=dict(fleet_print["config"]),
            seed=fleet_print["wafer"].get("seed"),
            tech=fleet_print["wafer"].get("technology", "edram"),
            scalars=dict(scalars),
            extra={
                "fleet_root": str(root),
                "shard_runs": shard_runs,
                "failed_ranges": [list(r) for r in sorted(failed_ranges)],
                "state": lot_state,
            },
        )
        run_id = ledger.record(manifest).run_id

    return LotMerge(
        state=lot_state,
        total_dies=total_dies,
        scalars=scalars,
        shard_runs=shard_runs,
        failed_ranges=sorted(failed_ranges),
        run_id=run_id,
        **planes,
    )
