"""Fleet orchestrator: supervised shard subprocesses over one wafer.

The production story the paper's structure needs at lot scale: split a
wafer into die-range shards (:mod:`repro.fleet.partition`), run each
shard as a subprocess of :mod:`repro.fleet.worker`, and keep the lot
alive through anything short of losing every machine:

- **Death detection** is two-channel: OS exit codes (a crashed worker)
  and lease staleness (a wedged worker whose heartbeat stopped — the
  orchestrator kills it and treats it as dead).
- **Recovery** rides the existing checkpoint/resume machinery: a dead
  shard's ledger holds its checkpoint, so the respawned worker (next
  ``generation``) resumes from the last completed die — bit-exact with
  a never-killed run by the wafer RNG fast-forward contract.
- **Backoff** between respawns follows the shared
  :class:`~repro.resilience.RetryPolicy` (exponential + deterministic
  jitter), scheduled non-blocking so one flapping shard never stalls
  supervision of the others.
- **Degradation, not loss**: a shard that exhausts its retry budget is
  marked ``failed`` and the lot completes without it — the merge stage
  fills its die range with FAILED quality instead of sinking the lot.

Fleet state lives in ``fleet.json`` at the fleet root (written
durably), so ``repro fleet status`` and the merge stage read a
consistent picture even while the fleet is running, and health gauges
stream into the ambient metrics registry.

No worker outlives its orchestrator: if :meth:`FleetOrchestrator.run`
exits by an exception, every live worker is SIGKILLed and reaped first,
so a re-run in the same root can never put a second writer on a shard's
checkpoint, lease or result.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import FleetError
from repro.fleet.lease import heartbeat_age, read_lease
from repro.fleet.partition import ShardRange, plan_shards, validate_partition
from repro.resilience.durable import durable_write

__all__ = [
    "DEFAULT_FLEET_DIR",
    "FLEET_FORMAT",
    "ShardStatus",
    "FleetReport",
    "FleetOrchestrator",
    "fleet_state",
    "fleet_exit_code",
]

#: Default fleet root, relative to the working directory.
DEFAULT_FLEET_DIR = ".repro-fleet"

#: ``fleet.json`` format version.
FLEET_FORMAT = 1

#: Orchestrator poll period, seconds.
_POLL_SECONDS = 0.05

#: Default stale-lease threshold, seconds.
_HEARTBEAT_TIMEOUT = 30.0

#: Exit codes distinguishing lot health (shared with the CLI): a
#: degraded lot (FAILED die ranges present) is advisory; a failed lot
#: (no shard produced planes, or the fleet is unusable) is an error.
EXIT_HEALTHY = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3


@dataclass
class ShardStatus:
    """Supervision state of one shard across its generations."""

    shard_id: int
    start: int
    stop: int
    state: str = "pending"  #: pending/running/backoff/done/failed
    attempts: int = 0  #: spawns so far (generation of the next spawn)
    exitcode: int | None = None
    run_id: str | None = None
    respawns: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "die_range": [self.start, self.stop],
            "state": self.state,
            "attempts": self.attempts,
            "exitcode": self.exitcode,
            "run_id": self.run_id,
            "respawns": self.respawns,
        }


@dataclass
class FleetReport:
    """Outcome of one :meth:`FleetOrchestrator.run`."""

    state: str  #: healthy / degraded / failed
    shards: list[ShardStatus] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def respawns(self) -> int:
        return sum(s.respawns for s in self.shards)

    @property
    def failed_shards(self) -> list[ShardStatus]:
        return [s for s in self.shards if s.state == "failed"]

    @property
    def exit_code(self) -> int:
        return fleet_exit_code(self.state)


def fleet_exit_code(state: str) -> int:
    """Map a lot state onto the fleet exit-code contract."""
    if state == "healthy":
        return EXIT_HEALTHY
    if state == "degraded":
        return EXIT_DEGRADED
    return EXIT_FAILED


class FleetOrchestrator:
    """Run one wafer as ``shards`` supervised die-range subprocesses.

    Parameters
    ----------
    root:
        Fleet directory (created if missing) holding ``fleet.json``,
        per-shard ledgers, leases, specs, progress streams, logs and
        results.
    wafer:
        :class:`~repro.wafer.WaferModel` constructor kwargs — must be
        JSON-serializable (they travel to workers via spec files).
    shards:
        Number of die-range shards to split the wafer into.
    retry:
        :class:`~repro.resilience.RetryPolicy` bounding respawns per
        shard (``max_attempts`` total spawns including the first).
        Defaults to the resilience default (3 attempts).
    heartbeat_timeout:
        Seconds without a lease heartbeat before a *running* worker is
        declared wedged and killed (then retried like any death).
    faults:
        Optional fault-plan JSON (see
        :func:`~repro.fleet.worker.fault_plan_from_spec`) shipped to
        workers — the chaos drill's kill switch.
    fault_attempts:
        ``"first"`` arms ``faults`` only on each shard's first spawn
        (so the respawn survives — the recovery drill), ``"all"`` arms
        every spawn (drives retry exhaustion).
    checkpoint_every_seconds:
        Worker checkpoint persistence throttle (``Checkpointer
        .min_save_seconds``): the dies a worker finishes within one
        window are appended to its checkpoint file as one segment, so a
        crash re-runs at most that window.  ``0.0`` appends a segment
        per die (one fsync each).
    max_concurrent:
        Worker subprocesses allowed to run at once; ``None`` (the
        default) caps at the cores this process may schedule on.
        Oversubscribing a small machine only adds context-switch tax —
        queued shards start as slots free up, supervision and retry
        semantics are identical either way.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_FLEET_DIR,
        *,
        wafer: dict[str, Any] | None = None,
        shards: int = 2,
        retry=None,
        heartbeat_timeout: float = _HEARTBEAT_TIMEOUT,
        poll_seconds: float = _POLL_SECONDS,
        faults: dict[str, Any] | None = None,
        fault_attempts: str = "first",
        label: str = "",
        checkpoint_every_seconds: float = 0.25,
        max_concurrent: int | None = None,
    ) -> None:
        from repro.resilience.retry import DEFAULT_RETRY_POLICY

        if heartbeat_timeout <= 0:
            raise FleetError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        if fault_attempts not in ("first", "all"):
            raise FleetError(
                f"fault_attempts must be 'first' or 'all', got "
                f"{fault_attempts!r}"
            )
        self.root = Path(root)
        self.wafer = dict(wafer or {})
        self.shards = shards
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_seconds = poll_seconds
        self.faults = faults
        self.fault_attempts = fault_attempts
        self.label = label
        self.checkpoint_every_seconds = float(checkpoint_every_seconds)
        if max_concurrent is not None and max_concurrent < 1:
            raise FleetError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self.max_concurrent = max_concurrent
        self._partition: tuple[ShardRange, ...] = ()
        self._statuses: list[ShardStatus] = []

    # -- paths ---------------------------------------------------------

    @property
    def fleet_path(self) -> Path:
        return self.root / "fleet.json"

    def shard_root(self, shard_id: int) -> Path:
        return self.root / "shards" / f"s{shard_id:02d}"

    def _paths(self, shard_id: int) -> dict[str, str]:
        return {
            "ledger_root": str(self.shard_root(shard_id)),
            "lease_path": str(self.root / "leases" / f"s{shard_id:02d}.json"),
            "progress_path": str(
                self.root / "progress" / f"s{shard_id:02d}.jsonl"
            ),
            "result_path": str(self.root / "results" / f"s{shard_id:02d}.npz"),
            "spec_path": str(self.root / "specs" / f"s{shard_id:02d}.json"),
            "log_path": str(self.root / "logs" / f"s{shard_id:02d}.log"),
        }

    # -- fleet.json ----------------------------------------------------

    def _fingerprint(self) -> dict[str, Any]:
        """The config consistency key every shard must match at merge."""
        from repro.measure.config import ScanConfig
        from repro.obs.ledger import config_fingerprint

        config = ScanConfig(technology=self.wafer.get("technology", "edram"))
        return {"config": config_fingerprint(config), "wafer": self.wafer}

    def _write_state(self, state: str) -> None:
        """Persist ``fleet.json`` durably."""
        payload = {
            "format": FLEET_FORMAT,
            "state": state,
            "label": self.label,
            "shards": len(self._partition),
            "total_dies": self._total_dies,
            "partition": [
                [r.shard_id, r.start, r.stop] for r in self._partition
            ],
            "fingerprint": self._fingerprint(),
            "shard_status": [s.to_dict() for s in self._statuses],
            "paths": {
                f"s{r.shard_id:02d}": self._paths(r.shard_id)
                for r in self._partition
            },
        }
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, indent=2) + "\n"
        durable_write(self.fleet_path, lambda fh: fh.write(text.encode("utf-8")))

    # -- supervision ---------------------------------------------------

    def _spawn(self, status: ShardStatus) -> subprocess.Popen:
        """Launch (or relaunch) one shard worker subprocess."""
        paths = self._paths(status.shard_id)
        resume = self._checkpoint_id(status.shard_id)
        arm_faults = self.faults is not None and (
            self.fault_attempts == "all" or status.attempts == 0
        )
        spec = {
            "shard_id": status.shard_id,
            "die_range": [status.start, status.stop],
            "wafer": self.wafer,
            "generation": status.attempts,
            "resume": resume,
            "label": self.label or None,
            "faults": self.faults if arm_faults else None,
            "checkpoint_every_seconds": self.checkpoint_every_seconds,
            **{k: v for k, v in paths.items()
               if k not in ("spec_path", "log_path")},
        }
        spec_path = Path(paths["spec_path"])
        spec_path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(spec, indent=2) + "\n"
        durable_write(spec_path, lambda fh: fh.write(text.encode("utf-8")))

        # A fresh worker needs a beat of Python startup before it writes
        # its own lease; a leftover lease from a previous generation (or
        # a previous fleet in the same root) would read as stale during
        # that window and get the new process killed on sight.
        Path(paths["lease_path"]).unlink(missing_ok=True)

        log_path = Path(paths["log_path"])
        log_path.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src_root
        )
        with open(log_path, "a", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.fleet.worker", str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        status.state = "running"
        status.attempts += 1
        return proc

    def _checkpoint_id(self, shard_id: int) -> str | None:
        """The shard's unfinished checkpoint id, if one survived death."""
        from repro.obs.ledger import RunLedger
        from repro.resilience.checkpoint import list_checkpoints

        try:
            checkpoints = list_checkpoints(RunLedger(self.shard_root(shard_id)))
        except Exception:  # lint: allow-broad-except - corrupt checkpoint == fresh start
            return None
        for state in reversed(checkpoints):
            if state.kind == "shard":
                return state.run_id
        return None

    def _emit_gauges(self, running: int, backoff: int) -> None:
        """Fleet health gauges into the ambient metrics registry."""
        from repro.obs.metrics import active_metrics

        registry = active_metrics()
        if not registry.enabled:
            return
        registry.counter("fleet.heartbeats").inc()
        registry.gauge("fleet.shards").set(len(self._statuses))
        registry.gauge("fleet.running").set(running)
        registry.gauge("fleet.backoff").set(backoff)
        registry.gauge("fleet.done").set(
            sum(1 for s in self._statuses if s.state == "done")
        )
        registry.gauge("fleet.failed").set(
            sum(1 for s in self._statuses if s.state == "failed")
        )
        registry.gauge("fleet.respawns").set(
            sum(s.respawns for s in self._statuses)
        )
        for status in self._statuses:
            prefix = f"fleet.shard{status.shard_id}"
            lease = read_lease(self._paths(status.shard_id)["lease_path"])
            registry.gauge(f"{prefix}.generation").set(
                max(0, status.attempts - 1)
            )
            registry.gauge(f"{prefix}.dies_done").set(
                lease.dies_done if lease is not None else 0
            )
            age = heartbeat_age(lease) if lease is not None else float("inf")
            if age != float("inf"):
                registry.gauge(f"{prefix}.heartbeat_age").set(age)

    def run(self) -> FleetReport:
        """Run the fleet to completion (supervising, respawning, degrading).

        Returns a :class:`FleetReport` whose ``state`` is ``healthy``
        (every shard done), ``degraded`` (some failed, some done) or
        ``failed`` (every shard failed).  Never raises on shard death —
        only on orchestration misuse (bad partition, bad parameters) or
        an interrupt, and then only after killing and reaping every live
        worker.
        """
        from repro.wafer import WaferModel

        model = WaferModel(**self.wafer)
        self._total_dies = len(model.sites())
        self._partition = plan_shards(self._total_dies, self.shards)
        validate_partition(self._partition, self._total_dies)
        self._statuses = [
            ShardStatus(shard_id=r.shard_id, start=r.start, stop=r.stop)
            for r in self._partition
        ]
        self._write_state("running")

        cap = self.max_concurrent
        if cap is None:
            try:
                cap = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                cap = os.cpu_count() or 1
        cap = max(1, min(cap, len(self._statuses)))

        start = time.monotonic()
        procs: dict[int, subprocess.Popen] = {}
        restart_at: dict[int, float] = {}
        last_gauges = 0.0

        try:
            while True:
                now = time.monotonic()
                # 1. Reap exits.
                for status in self._statuses:
                    proc = procs.get(status.shard_id)
                    if proc is None or status.state != "running":
                        continue
                    code = proc.poll()
                    if code is None:
                        continue
                    procs.pop(status.shard_id)
                    status.exitcode = code
                    if code == 0:
                        status.state = "done"
                        lease = read_lease(
                            self._paths(status.shard_id)["lease_path"]
                        )
                        if lease is not None:
                            status.run_id = lease.run_id
                    else:
                        self._handle_death(status, restart_at, now)
                # 2. Kill wedged workers (stale lease while still running).
                for status in self._statuses:
                    if status.state != "running":
                        continue
                    proc = procs.get(status.shard_id)
                    if proc is None:
                        continue
                    lease = read_lease(self._paths(status.shard_id)["lease_path"])
                    # Only a lease the current worker wrote can condemn it —
                    # a stale file from another pid/generation says nothing
                    # about this process's health.
                    if (
                        lease is None
                        or lease.pid != proc.pid
                        or lease.generation != status.attempts - 1
                    ):
                        continue
                    age = heartbeat_age(lease)
                    if age > self.heartbeat_timeout:
                        try:
                            proc.send_signal(signal.SIGKILL)
                        except OSError:  # pragma: no cover - already gone
                            pass
                        proc.wait()
                        procs.pop(status.shard_id, None)
                        status.exitcode = -signal.SIGKILL
                        self._handle_death(status, restart_at, now)
                # 3. Fill free worker slots: unstarted shards in id order,
                #    then respawns whose backoff elapsed.  The first loop
                #    iteration does the initial spawns through this path.
                running = sum(1 for s in self._statuses if s.state == "running")
                for status in self._statuses:
                    if running >= cap:
                        break
                    if status.state == "pending":
                        procs[status.shard_id] = self._spawn(status)
                        running += 1
                    elif status.state == "backoff" and now >= restart_at.get(
                        status.shard_id, 0.0
                    ):
                        restart_at.pop(status.shard_id, None)
                        status.respawns += 1
                        procs[status.shard_id] = self._spawn(status)
                        running += 1
                # 4. Telemetry + persisted status (throttled).
                if now - last_gauges >= self.poll_seconds:
                    last_gauges = now
                    self._emit_gauges(
                        running=sum(
                            1 for s in self._statuses if s.state == "running"
                        ),
                        backoff=len(restart_at),
                    )
                if all(s.state in ("done", "failed") for s in self._statuses):
                    break
                time.sleep(self.poll_seconds)
        except BaseException:
            # Never leave a worker running past its supervisor: a re-run
            # in this root would put a second writer on its files.
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            raise

        done = sum(1 for s in self._statuses if s.state == "done")
        if done == len(self._statuses):
            state = "healthy"
        elif done == 0:
            state = "failed"
        else:
            state = "degraded"
        self._write_state(state)
        self._emit_gauges(running=0, backoff=0)
        return FleetReport(
            state=state,
            shards=list(self._statuses),
            wall_seconds=time.monotonic() - start,
        )

    def _handle_death(
        self,
        status: ShardStatus,
        restart_at: dict[int, float],
        now: float,
    ) -> None:
        """Route one shard death: schedule a respawn or mark it failed."""
        attempt = status.attempts - 1  # 0-based attempt that just died
        if self.retry.should_retry(attempt):
            status.state = "backoff"
            restart_at[status.shard_id] = now + self.retry.delay(
                attempt, key=status.shard_id
            )
        else:
            status.state = "failed"


def fleet_state(root: str | Path) -> dict[str, Any]:
    """Read ``fleet.json`` (plus live leases) for ``repro fleet status``."""
    root = Path(root)
    path = root / "fleet.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FleetError(f"no fleet at {root} ({exc})") from exc
    except ValueError as exc:
        raise FleetError(f"corrupt fleet state {path}: {exc}") from exc
    leases = {}
    for key, paths in payload.get("paths", {}).items():
        lease = read_lease(paths["lease_path"])
        if lease is not None:
            leases[key] = {
                "state": lease.state,
                "pid": lease.pid,
                "generation": lease.generation,
                "dies_done": lease.dies_done,
                "heartbeat_age": heartbeat_age(lease),
                "run_id": lease.run_id,
            }
    payload["leases"] = leases
    return payload
