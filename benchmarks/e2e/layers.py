"""Per-layer timing of the end-to-end benchmark, measured from outside.

:meth:`Recorder.install` replaces each public call named in
:data:`SITES` with a wrapper placed where its caller looks the name up:
a class attribute, or the module global a caller imported the function
into.  :meth:`Recorder.uninstall` puts the originals back.  Every
wrapper records, under its site's key, the number of calls, inclusive
seconds, and self seconds: inclusive minus the inclusive time of the
wrapped calls made inside it.  Self times of all keys therefore add up
to the time spent inside any wrapped call, and the rest of an op's wall
time is ``other_s``.

Records stay in memory; :func:`layer_metrics` turns them into the
``per_layer`` metrics of ``BENCHMARK.json``.  Nothing under ``src/`` is
touched, and fleet worker subprocesses are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _scan_done(values, args, result) -> None:
    values["scan.engine_cells"] += result.stats.engine_cells
    values["scan.total_cells"] += result.stats.total_cells


def _checkpoint_written(values, args, result) -> None:
    checkpointer = args[0]
    values["checkpoint.bytes"] += checkpointer.path.stat().st_size
    if result is not None:  # Checkpointer.start returns the run's state
        values["checkpoint.units"] += result.total


#: ``(key, "module[:Class]", attribute[, hook])``.  Several sites may
#: share a key; a layer metric sums its keys.  A hook runs after the
#: call returns, outside the wrapper's timing, with ``(values, args,
#: result)``.  ``design_structure`` is wrapped in every namespace the
#: workloads reach it through.
SITES = (
    ("edram", "repro.edram.array:EDRAMArray", "__init__"),
    ("edram", "repro.edram.defects:DefectInjector", "scatter"),
    ("edram", "repro.edram.defects:DefectInjector", "cluster"),
    ("calibration", "repro", "design_structure"),
    ("calibration", "repro.calibration.design", "design_structure"),
    ("calibration", "repro.wafer", "design_structure"),
    ("calibration", "repro.calibration.abacus:Abacus", "analytic"),
    ("calibration", "repro.calibration.abacus:Abacus", "for_array"),
    ("fabricate", "repro.wafer:WaferModel", "fabricate_die"),
    ("kernel", "repro.measure.scan", "closed_form_vgs_plane"),
    ("convert", "repro.measure.structure:MeasurementStructure", "codes_for_vgs"),
    ("scan.init", "repro.measure.scan:ArrayScanner", "__init__"),
    ("scan", "repro.measure.scan:ArrayScanner", "scan", _scan_done),
    ("scan.macro_cf", "repro.measure.scan:ArrayScanner", "closed_form_vgs"),
    ("engine", "repro.measure.sequencer:MeasurementSequencer", "measure_charge"),
    ("bitmap", "repro.bitmap.analog:AnalogBitmap", "__init__"),
    ("bitmap", "repro.bitmap.analog:AnalogBitmap", "classify"),
    ("march", "repro.baselines.march:MarchTest", "run"),
    ("march", "repro.diagnosis.pipeline", "retention_test"),
    ("diagnosis", "repro.diagnosis.classifier:CellClassifier", "classify_all"),
    ("diagnosis", "repro.diagnosis.failure_analysis:FailureAnalyzer", "analyze"),
    ("diagnosis", "repro.diagnosis.process_monitor:ProcessMonitor", "report"),
    ("diagnosis", "repro.diagnosis.repair:RepairPlanner", "plan"),
    ("checkpoint", "repro.resilience.checkpoint:Checkpointer", "start",
     _checkpoint_written),
    ("checkpoint", "repro.resilience.checkpoint:Checkpointer", "save",
     _checkpoint_written),
    ("ledger", "repro.obs.ledger:RunLedger", "record_scan"),
    ("ledger.append", "repro.obs.ledger:RunLedger", "record"),
    ("wafer", "repro.wafer:WaferModel", "measure_wafer"),
    ("fleet.run", "repro.fleet.orchestrator:FleetOrchestrator", "run"),
    ("fleet.merge", "repro.fleet", "merge_lot"),
)


class Recorder:
    """Calls, inclusive and self seconds per site key, kept in memory.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        #: Counts gathered by hooks and by the benchmark itself.
        self.values: defaultdict[str, float] = defaultdict(float)
        #: Inclusive seconds of outermost wrapped calls.
        self.top = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def wrap(self, key: str, fn, hook=None):
        """``fn`` wrapped to record its calls under ``key``."""
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                self.calls[key] += 1
                self.inclusive[key] += elapsed
                self.self_seconds[key] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top += elapsed
            if hook is not None:
                hook(self.values, args, result)
            return result

        return wrapper

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for key, target, attr, *hook in SITES:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(key, original.__func__, *hook))
            else:
                patched = self.wrap(key, original, *hook)
            patches.append((owner, attr, original, patched))
        return patches

    def install(self) -> None:
        """Put the wrappers in place (built on first use)."""
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _original, patched in self._patches:
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every original."""
        for owner, attr, original, _patched in self._patches or ():
            setattr(owner, attr, original)


def layer_metrics(ops: Recorder, setup: Recorder, n_ops: int, n_setups: int, *,
                  op_seconds: float, op_scale: float = 1.0,
                  setup_scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics, per traced op (``setup.*``: per set-up).

    ``op_seconds`` is the wall time of the ``n_ops`` traced ops; the
    fleet's ``fleet.shard_s`` and ``fleet.respawns`` arrive in
    ``ops.values`` from the workload's output checks.  Times are
    multiplied by ``op_scale`` / ``setup_scale``, the reference-speed
    seconds per wall second of the traced ops / set-ups.
    """
    s, c, v = ops.self_seconds, ops.calls, ops.values
    run_s, shard_s = s["fleet.run"], v["fleet.shard_s"]
    seconds = {
        "edram.build_s": s["edram"],
        "calibration.s": s["calibration"],
        "fabricate.s": s["fabricate"],
        "kernel.s": s["kernel"],
        "convert.s": s["convert"],
        "scan.self_s": s["scan"] + s["scan.macro_cf"],
        "scan.init_s": s["scan.init"],
        "engine.s": s["engine"],
        "bitmap.s": s["bitmap"],
        "march.s": s["march"],
        "diagnosis.s": s["diagnosis"],
        "checkpoint.save_s": s["checkpoint"],
        "ledger.append_s": s["ledger"] + s["ledger.append"],
        "wafer.self_s": s["wafer"],
        "fleet.run_s": run_s,
        "fleet.shard_s": shard_s,
        "fleet.fixed_s": run_s - shard_s,
        "fleet.merge_s": s["fleet.merge"],
        "other_s": op_seconds - ops.top,
    }
    counts = {
        "edram.build_calls": c["edram"],
        "calibration.calls": c["calibration"],
        "fabricate.calls": c["fabricate"],
        "kernel.calls": c["kernel"],
        "convert.calls": c["convert"],
        "scan.calls": c["scan"],
        "scan.macro_cf_calls": c["scan.macro_cf"],
        "engine.cells": c["engine"],
        "bitmap.calls": c["bitmap"],
        "march.calls": c["march"],
        "checkpoint.saves": c["checkpoint"],
        "checkpoint.bytes": v["checkpoint.bytes"],
        "ledger.appends": c["ledger.append"],
        "fleet.respawns": v["fleet.respawns"],
    }
    metrics = {name: value * op_scale / n_ops for name, value in seconds.items()}
    metrics.update({name: value / n_ops for name, value in counts.items()})
    scanned, units = v["scan.total_cells"], v["checkpoint.units"]
    metrics["scan.engine_cell_frac"] = (
        v["scan.engine_cells"] / scanned if scanned else 0.0
    )
    metrics["checkpoint.saves_per_unit"] = c["checkpoint"] / units if units else 0.0
    for name, key in (("setup.edram.build_s", "edram"),
                      ("setup.calibration.s", "calibration")):
        metrics[name] = setup.self_seconds[key] * setup_scale / n_setups
    return metrics
