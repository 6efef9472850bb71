"""Fault-tolerant wafer-fleet orchestration.

Splits a wafer into die-range shards (:mod:`~repro.fleet.partition`),
runs each shard as a supervised subprocess with lease-file heartbeats
(:mod:`~repro.fleet.worker`, :mod:`~repro.fleet.lease`), recovers shard
death through checkpoint/resume with bounded retries
(:mod:`~repro.fleet.orchestrator`), and merges shard results into one
crash-safe, idempotent lot artifact feeding the drift engine
(:mod:`~repro.fleet.merge`).  Surfaced on the CLI as
``repro fleet run / status / merge``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.fleet.lease import (
        ShardLease,
        heartbeat_age,
        read_lease,
        write_lease,
    )
    from repro.fleet.merge import LotMerge, lot_scalars, merge_lot
    from repro.fleet.orchestrator import (
        DEFAULT_FLEET_DIR,
        FleetOrchestrator,
        FleetReport,
        ShardStatus,
        fleet_exit_code,
        fleet_state,
    )
    from repro.fleet.partition import (
        ShardRange,
        partition_defects,
        plan_shards,
        validate_partition,
    )

_EXPORTS = {
    "DEFAULT_FLEET_DIR": "repro.fleet.orchestrator",
    "FleetOrchestrator": "repro.fleet.orchestrator",
    "FleetReport": "repro.fleet.orchestrator",
    "LotMerge": "repro.fleet.merge",
    "ShardLease": "repro.fleet.lease",
    "ShardRange": "repro.fleet.partition",
    "ShardStatus": "repro.fleet.orchestrator",
    "fleet_exit_code": "repro.fleet.orchestrator",
    "fleet_state": "repro.fleet.orchestrator",
    "heartbeat_age": "repro.fleet.lease",
    "lot_scalars": "repro.fleet.merge",
    "merge_lot": "repro.fleet.merge",
    "partition_defects": "repro.fleet.partition",
    "plan_shards": "repro.fleet.partition",
    "read_lease": "repro.fleet.lease",
    "validate_partition": "repro.fleet.partition",
    "write_lease": "repro.fleet.lease",
}

__all__ = [
    "DEFAULT_FLEET_DIR",
    "FleetOrchestrator",
    "FleetReport",
    "LotMerge",
    "ShardLease",
    "ShardRange",
    "ShardStatus",
    "fleet_exit_code",
    "fleet_state",
    "heartbeat_age",
    "lot_scalars",
    "merge_lot",
    "partition_defects",
    "plan_shards",
    "read_lease",
    "validate_partition",
    "write_lease",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
