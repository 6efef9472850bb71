#!/usr/bin/env python3
"""Chaos drill: fail a cell, interrupt the scan — finish anyway.

A deterministic fault plan makes one cell's solver singular and interrupts
the run after two macros, one macro row, which the checkpoint persisted.  The fallback ladder flags the sick cell DEGRADED
instead of dropping it, and --resume finishes from the checkpoint
bit-exactly.  (Worker kills and respawns are drilled on the wafer fleet:
see ``tests/integration/test_fleet_chaos.py``.)

Run:  python examples/chaos_drill.py
"""

import tempfile

import numpy as np

from repro import ArrayScanner, EDRAMArray
from repro.errors import SingularCircuitError
from repro.measure.config import ScanConfig
from repro.obs.ledger import RunLedger
from repro.resilience import Checkpointer, Fault, FaultPlan

CHAOS = [
    Fault("sequencer.measure", error=SingularCircuitError("injected short"), match={"row": 1, "col": 1}),
    Fault("scan.macro_done", error=KeyboardInterrupt(), after=2, times=1),
]


def array():
    return EDRAMArray(8, 8, macro_rows=4, macro_cols=4)


with tempfile.TemporaryDirectory() as tmp:
    ledger = RunLedger(tmp)
    config = ScanConfig(force_engine=True, faults=FaultPlan(CHAOS),
                        checkpoint=Checkpointer(ledger))
    try:
        ArrayScanner(array(), None).scan(config)
    except KeyboardInterrupt:
        print(f"interrupted after checkpointing run {config.checkpoint.run_id}")

    resumed = ScanConfig(force_engine=True, faults=FaultPlan(CHAOS[:1]),
                         checkpoint=Checkpointer(ledger, resume="r0001"))
    scan = ArrayScanner(array(), None).scan(resumed)

    uninterrupted = ArrayScanner(array(), None).scan(
        ScanConfig(force_engine=True, faults=FaultPlan(CHAOS[:1])))
    clean = ArrayScanner(array(), None).scan(ScanConfig(force_engine=True))
    print(f"resumed scan: {scan.quality_counts()}")
    print("sick cell flagged, value kept:", scan.quality[1, 1] == 1, scan.codes[1, 1] != 0)
    print("bit-exact with an uninterrupted run:",
          all(np.array_equal(getattr(scan, p), getattr(uninterrupted, p))
              for p in ("codes", "vgs", "tiers", "quality")))
    healthy = scan.quality == 0
    print("bit-exact with a clean run elsewhere:",
          bool(np.array_equal(scan.codes[healthy], clean.codes[healthy])))
