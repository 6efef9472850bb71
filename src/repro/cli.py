"""Command-line interface.

Exposes the library's main flows without writing Python:

- ``python -m repro design``   — size a structure for a macro geometry
- ``python -m repro abacus``   — print the Figure-3 calibration table
- ``python -m repro scan``     — synthesize an array (optionally with
  defects), scan it, render the analog bitmap; ``--trace``/``--metrics``
  attach the observability layer, ``--json`` emits a machine-readable
  report
- ``python -m repro diagnose`` — full pipeline on a synthesized array
- ``python -m repro trace``    — summarize a trace written by ``--trace``
- ``python -m repro lint``     — static ERC / parameter / unit analysis
- ``python -m repro wafer``    — wafer-level monitoring demo
- ``python -m repro fleet``    — fault-tolerant sharded wafer runs:
  ``run`` supervises die-range shard subprocesses (lease heartbeats,
  checkpoint/resume respawns, bounded retries), ``status`` shows live
  shard health, ``merge`` combines shard results into a crash-safe
  lot artifact; exit codes distinguish healthy (0), degraded (3) and
  failed (1) lots
- ``python -m repro runs``     — read the run ledger written by
  ``--record``: ``list``/``show`` browse manifests, ``diff`` compares
  two runs (config + scalars + per-cell bitmap delta), ``check`` runs
  the EWMA/CUSUM drift gate and exits nonzero on out-of-control physics

Common options are factored into shared parent parsers so every
subcommand spells them identically: ``--seed``,
``--format text|json`` (with ``--json`` as a shorthand for
``--format json``), and on the measurement commands ``--record [DIR]``
(append a run manifest to the ledger), ``--label``, ``--progress`` /
``--progress-jsonl PATH`` (live completion/throughput/ETA).

Resilience (``scan`` and ``wafer``): ``--checkpoint [DIR]`` persists
completed macros/dies through the run ledger, ``--resume RUN_ID``
continues an interrupted run bit-exactly (``repro runs checkpoints``
lists the unfinished ones).  Ctrl-C exits with status 130, printing the
resume command when one exists.  Process parallelism is the fleet's
(``repro fleet run --shards N``); a scan runs in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.units import fF, to_fF, to_ns, to_uA

#: Default ledger directory (mirrored from repro.obs.ledger lazily —
#: the CLI defers heavyweight imports until a command runs).
_DEFAULT_LEDGER_DIR = ".repro-runs"


# ----------------------------------------------------------------------
# Shared parent parsers — one spelling per option, reused by subcommands.
# ----------------------------------------------------------------------


def _geometry_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--rows", type=int, default=32, help="array rows")
    parent.add_argument("--cols", type=int, default=16, help="array cols")
    parent.add_argument("--macro-rows", type=int, default=8, help="plate tile rows")
    parent.add_argument("--macro-cols", type=int, default=2, help="plate tile cols")
    return parent


def _seed_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0, help="randomness seed")
    return parent


def _tech_parent() -> argparse.ArgumentParser:
    # names() is import-free (the registry imports no backend module),
    # so building the parser stays cheap.
    from repro.technologies import names

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--tech", choices=names(), default="edram",
                        help="cell-technology backend (default edram; "
                             "see `repro tech list`)")
    return parent


def _format_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering")
    parent.add_argument("--json", dest="format", action="store_const",
                        const="json", help="shorthand for --format json")
    return parent


def _record_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--record", nargs="?", const=_DEFAULT_LEDGER_DIR,
                        default=None, metavar="DIR",
                        help="append a run manifest to this ledger directory "
                             f"(default {_DEFAULT_LEDGER_DIR})")
    parent.add_argument("--label", default="",
                        help="free-form label stored in the run manifest")
    return parent


def _checkpoint_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--checkpoint", nargs="?", const=_DEFAULT_LEDGER_DIR,
                        default=None, metavar="DIR",
                        help="checkpoint completed work units into this ledger "
                             "directory (default: the --record directory, else "
                             f"{_DEFAULT_LEDGER_DIR}) so an interrupted run "
                             "can --resume")
    parent.add_argument("--resume", metavar="RUN_ID",
                        help="resume the unfinished checkpointed run RUN_ID "
                             "(see `repro runs checkpoints`); geometry/seed "
                             "flags are restored from the checkpoint")
    return parent


def _progress_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--progress", action="store_true",
                        help="render a live progress line on stderr")
    parent.add_argument("--progress-jsonl", metavar="PATH",
                        help="stream progress events as JSON lines to PATH")
    return parent


def _progress_from(args):
    """The progress reporter the flags ask for (the null one otherwise)."""
    from repro.obs import NULL_PROGRESS, JsonlProgress, ProgressReporter

    if getattr(args, "progress_jsonl", None):
        return JsonlProgress(args.progress_jsonl)
    if getattr(args, "progress", False):
        return ProgressReporter()
    return NULL_PROGRESS


def _backend_for(args):
    from repro.technologies import get as get_technology

    return get_technology(getattr(args, "tech", "edram"))


def _build_array(args, with_defects: bool):
    # Array synthesis is the backend's job: each technology owns its
    # variation model and defect recipe.  The eDRAM backend replicates
    # the historical recipe bit-exactly (pinned by property tests).
    nominal_ff = getattr(args, "nominal_ff", None)
    return _backend_for(args).build_array(
        args.rows, args.cols,
        macro_rows=args.macro_rows, macro_cols=args.macro_cols,
        seed=args.seed,
        nominal=None if nominal_ff is None else nominal_ff * fF,
        with_defects=with_defects,
    )


def _design_for(args, array):
    return _backend_for(args).design_structure(array, bitline_rows=args.rows)


def cmd_design(args) -> int:
    array = _build_array(args, with_defects=False)
    structure = _design_for(args, array)
    d = structure.design
    print(f"structure for {args.macro_rows}x{args.macro_cols} tiles on "
          f"{args.rows}-row columns:")
    print(f"  C_REF        : {to_fF(structure.c_ref):.2f} fF "
          f"(REF {d.w_ref * 1e6:.2f} x {d.l_ref * 1e6:.2f} um)")
    print(f"  DAC step     : {to_uA(d.delta_i):.3f} uA x {d.num_steps} steps")
    print(f"  phase clock  : {to_ns(d.phase_duration):.1f} ns "
          f"({'slew-safe' if structure.is_slew_safe else 'SLEW LIMITED'})")
    print(f"  flow         : {to_ns(d.flow_duration):.1f} ns per cell")
    return 0


def cmd_abacus(args) -> int:
    from repro.calibration.abacus import Abacus

    array = _build_array(args, with_defects=False)
    structure = _design_for(args, array)
    abacus = Abacus.for_array(structure, array)
    print(abacus.table())
    return 0


#: Scan CLI flags persisted in a checkpoint's meta so ``--resume`` can
#: rebuild the identical array without the user retyping geometry.
_SCAN_REBUILD_KEYS = (
    "rows", "cols", "macro_rows", "macro_cols",
    "seed", "healthy", "nominal_ff", "force_engine", "preflight", "tech",
)


def _checkpointer_from(args, rebuild_keys):
    """Build the Checkpointer the --checkpoint/--resume flags ask for.

    Returns ``(checkpointer, ck_dir, error_exit)``; on a resume the
    checkpoint's stored meta is copied back onto ``args`` so the run is
    rebuilt exactly as checkpointed.  ``error_exit`` is an int exit code
    when the resume target is unusable, else ``None``.
    """
    if args.resume is None and args.checkpoint is None:
        return None, None, None
    from repro.errors import CheckpointError
    from repro.obs import RunLedger
    from repro.resilience import Checkpointer, load_checkpoint

    ck_dir = args.checkpoint or args.record or _DEFAULT_LEDGER_DIR
    ledger = RunLedger(ck_dir)
    if args.resume is not None:
        try:
            peek = load_checkpoint(
                ledger.checkpoint_dir / f"{args.resume}.npz"
            )
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None, ck_dir, 2
        for key in rebuild_keys:
            if key in peek.meta:
                setattr(args, key, peek.meta[key])
        return Checkpointer(ledger, resume=args.resume), ck_dir, None
    meta = {key: getattr(args, key) for key in rebuild_keys}
    return Checkpointer(ledger, meta=meta), ck_dir, None


def _ledger_from(args, trace_path: str | None = None):
    """The ledger ``--record`` names, carrying the run's ``--label`` and
    trace path; ``None`` without ``--record``.  The driver records; the
    ledger keeps the bitmap a scan was recorded with as ``bitmap``."""
    if args.record is None:
        return None
    from repro.obs import RunLedger

    class Ledger(RunLedger):
        bitmap = None

        def record_scan(self, result, config=None, **kwargs):
            self.bitmap = kwargs.get("bitmap")
            return super().record_scan(result, config, **kwargs)

    return Ledger(args.record, label=args.label, trace_path=trace_path)


def _resume_hint(command: str, run_id: str, ck_dir: str | None, args) -> str:
    hint = f"repro {command} --resume {run_id}"
    if getattr(args, "checkpoint", None):
        hint += f" --checkpoint {ck_dir}"
    elif getattr(args, "record", None):
        hint += f" --record {args.record}"
    return hint


def cmd_scan(args) -> int:
    from repro.bitmap.analog import AnalogBitmap
    from repro.bitmap.export import render_code_map
    from repro.calibration.abacus import Abacus
    from repro.errors import CheckpointError
    from repro.measure.config import ScanConfig
    from repro.measure.scan import ArrayScanner
    from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer

    checkpointer, ck_dir, error_exit = _checkpointer_from(
        args, _SCAN_REBUILD_KEYS
    )
    if error_exit is not None:
        return error_exit

    tracer = Tracer() if args.trace else NULL_TRACER
    want_metrics = args.metrics or args.metrics_out or args.format == "json"
    metrics = MetricsRegistry() if want_metrics else NULL_METRICS

    array = _build_array(args, with_defects=not args.healthy)
    structure = _design_for(args, array)
    ledger = _ledger_from(args, args.trace)
    config = ScanConfig(
        force_engine=args.force_engine,
        preflight=args.preflight,
        technology=args.tech,
        tracer=tracer,
        metrics=metrics,
        progress=_progress_from(args),
        ledger=ledger,
        checkpoint=checkpointer,
    )
    try:
        scan = ArrayScanner(array, structure).scan(config)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        if checkpointer is not None and checkpointer.state is not None:
            hint = _resume_hint("scan", checkpointer.run_id, ck_dir, args)
            print(f"interrupted; resume with: {hint}", file=sys.stderr)
        raise
    # A recorded scan prints from the bitmap its driver recorded it with.
    bitmap = getattr(ledger, "bitmap", None) or AnalogBitmap(scan, Abacus.for_array(structure, array))

    if args.trace:
        tracer.write_jsonl(args.trace)
    if args.metrics_out:
        metrics.write_jsonl(args.metrics_out)
    saved_to = None
    if args.save:
        from repro.io import save_scan

        saved_to = str(save_scan(scan, args.save))

    if args.format == "json":
        payload = {
            "geometry": {
                "rows": args.rows, "cols": args.cols,
                "macro_rows": args.macro_rows, "macro_cols": args.macro_cols,
                "macros": array.num_macros,
            },
            "cells": array.num_cells,
            "num_steps": scan.num_steps,
            "mean_fF": to_fF(bitmap.mean_capacitance()),
            "sigma_fF": to_fF(bitmap.std_capacitance()),
            "code_histogram": {str(k): v for k, v in scan.code_histogram().items()},
            "stats": scan.stats.to_dict() if scan.stats is not None else None,
            "metrics": metrics.to_dict() if metrics.enabled else None,
            "trace": args.trace,
            "saved": saved_to,
            "run_id": scan.run_id,
            "ledger": args.record,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"scanned {array.num_cells} cells "
          f"({array.num_macros} tiles of {args.macro_rows}x{args.macro_cols})")
    if scan.stats is not None:
        print(scan.stats.summary())
    print(f"mean {to_fF(bitmap.mean_capacitance()):.2f} fF, "
          f"sigma {to_fF(bitmap.std_capacitance()):.2f} fF")
    print(render_code_map(scan.codes))
    if args.metrics:
        print("metrics:")
        print(metrics.summary_table())
    if args.trace:
        print(f"trace written to {args.trace} "
              f"({len(tracer.spans)} spans; summarize with `repro trace`)")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if saved_to:
        print(f"scan saved to {saved_to}")
    if scan.run_id:
        print(f"recorded as {scan.run_id} in {args.record}")
    return 0


def cmd_diagnose(args) -> int:
    from repro.diagnosis.pipeline import DiagnosisPipeline
    from repro.measure.config import ScanConfig

    array = _build_array(args, with_defects=True)
    spec_lo, spec_hi = _backend_for(args).spec_window()
    pipeline = DiagnosisPipeline(spec_lo=spec_lo, spec_hi=spec_hi)
    config = ScanConfig(
        technology=args.tech,
        progress=_progress_from(args),
        ledger=_ledger_from(args),
    )
    report = pipeline.run(array, config)
    if args.format == "json":
        payload = report.to_dict()
        payload["run_id"] = report.scan.run_id
        payload["ledger"] = args.record
        print(json.dumps(payload, indent=2))
        return 0
    print(report.summary())
    print()
    print("findings:")
    for finding in report.findings:
        print(f"  {finding.describe()}")
    if report.scan.run_id:
        print(f"recorded as {report.scan.run_id} in {args.record}")
    return 0


def cmd_trace(args) -> int:
    from repro.obs import (
        load_trace,
        merge_traces,
        render_timeline,
        summarize_trace,
        timeline_dict,
    )

    if len(args.paths) == 1:
        spans = load_trace(args.paths[0])
    else:
        spans = merge_traces(load_trace(path) for path in args.paths)
    if args.timeline:
        if args.format == "json":
            print(json.dumps(timeline_dict(spans), indent=2))
        else:
            print(render_timeline(spans))
        return 0
    summary = summarize_trace(spans)
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(summary.table())
    return 0


def cmd_lint(args) -> int:
    from repro.errors import LintError
    from repro.lint import (
        LintReport,
        apply_waivers,
        expand_codes,
        lint_circuit,
        lint_project,
        lint_source,
        lint_technology,
        load_waivers,
        preflight_macro,
    )
    from repro.measure.netlist_builder import build_measurement_circuit

    only = None
    if args.select:
        tokens = [t for chunk in args.select for t in chunk.split(",") if t]
        try:
            only = expand_codes(tokens)
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    report = LintReport()
    if not args.source_only:
        array = _build_array(args, with_defects=args.defects)
        structure = _design_for(args, array)
        report.merge(lint_technology(array.tech))
        macro0 = array.macro(0)
        built = build_measurement_circuit(macro0, 0, 0, structure)
        report.merge(lint_circuit(built.circuit))
        for macro in array.macros():
            report.merge(
                preflight_macro(
                    macro, structure, waive_known_defects=not args.strict_defects
                )
            )
        report.merge(lint_project(only))
    if args.source:
        report.merge(lint_source(args.source, only))
    if only is not None:
        # The structural passes above (circuit/flow/tech) don't take a
        # code filter; apply the selection to the merged report so
        # --select CCY,DET means exactly those families in the output.
        selected = set(only)
        report = LintReport(
            [d for d in report.diagnostics if d.code in selected]
        )
    if args.waivers:
        try:
            report = apply_waivers(report, load_waivers(args.waivers))
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code


#: Wafer CLI flags persisted in a checkpoint's meta (see _SCAN_REBUILD_KEYS).
_WAFER_REBUILD_KEYS = ("diameter", "seed", "tech")


def cmd_wafer(args) -> int:
    from repro.errors import CheckpointError
    from repro.measure.config import ScanConfig
    from repro.wafer import WaferModel

    checkpointer, ck_dir, error_exit = _checkpointer_from(
        args, _WAFER_REBUILD_KEYS
    )
    if error_exit is not None:
        return error_exit

    model = WaferModel(
        diameter_dies=args.diameter, seed=args.seed, technology=args.tech
    )
    config = ScanConfig(
        technology=args.tech,
        progress=_progress_from(args),
        ledger=_ledger_from(args),
        checkpoint=checkpointer,
    )
    try:
        report = model.measure_wafer(config=config)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        if checkpointer is not None and checkpointer.state is not None:
            hint = _resume_hint("wafer", checkpointer.run_id, ck_dir, args)
            print(f"interrupted; resume with: {hint}", file=sys.stderr)
        raise
    print(report.ascii_map())
    a, b = report.radial_profile()
    print(f"radial profile: centre {to_fF(a):.2f} fF, "
          f"centre-to-edge drop {to_fF(-b):.2f} fF")
    for label, mean, count in report.zonal_means():
        print(f"  zone {label}: {to_fF(mean):6.2f} fF ({count} dies)")
    if report.run_id:
        print(f"recorded as {report.run_id} in {args.record}")
    return 0


def cmd_fleet_run(args) -> int:
    from repro.errors import FleetError
    from repro.fleet import FleetOrchestrator
    from repro.resilience.retry import RetryPolicy

    try:
        retry = RetryPolicy(max_attempts=max(1, args.retries + 1))
        orchestrator = FleetOrchestrator(
            args.root,
            wafer={
                "diameter_dies": args.diameter,
                "seed": args.seed,
                "technology": args.tech,
            },
            shards=args.shards,
            retry=retry,
            heartbeat_timeout=args.heartbeat_timeout,
            label=args.label,
        )
        report = orchestrator.run()
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({
            "state": report.state,
            "wall_seconds": report.wall_seconds,
            "respawns": report.respawns,
            "shards": [s.to_dict() for s in report.shards],
        }, indent=2))
    else:
        print(f"fleet {report.state} in {report.wall_seconds:.1f} s "
              f"({report.respawns} respawn(s))")
        for shard in report.shards:
            print(f"  shard {shard.shard_id}: dies "
                  f"[{shard.start},{shard.stop}) {shard.state} "
                  f"after {shard.attempts} attempt(s)"
                  + (f", run {shard.run_id}" if shard.run_id else ""))
        if report.state != "healthy":
            print("merge will mark the failed die range(s) FAILED",
                  file=sys.stderr)
    return report.exit_code


def cmd_fleet_status(args) -> int:
    from repro.errors import FleetError
    from repro.fleet import fleet_exit_code, fleet_state

    try:
        state = fleet_state(args.root)
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(state, indent=2))
        return 0
    print(f"fleet at {args.root}: {state['state']} "
          f"({state['shards']} shard(s), {state['total_dies']} dies)")
    leases = state.get("leases", {})
    for shard in state.get("shard_status", []):
        key = f"s{shard['shard_id']:02d}"
        lease = leases.get(key)
        live = ""
        if lease is not None:
            live = (f" — lease {lease['state']}, pid {lease['pid']}, "
                    f"{lease['dies_done']} dies done, heartbeat "
                    f"{lease['heartbeat_age']:.1f} s ago")
        lo, hi = shard["die_range"]
        print(f"  shard {shard['shard_id']}: dies [{lo},{hi}) "
              f"{shard['state']} (attempts {shard['attempts']}){live}")
    if state["state"] == "running":
        return 0
    return fleet_exit_code(state["state"])


def cmd_fleet_merge(args) -> int:
    from repro.errors import FleetError, LedgerError
    from repro.fleet import merge_lot

    ledger = None
    if args.record is not None:
        from repro.obs import RunLedger

        ledger = RunLedger(args.record)
    try:
        lot = merge_lot(
            args.root, ledger=ledger, label=args.label, force=args.force
        )
    except (FleetError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({
            "state": lot.state,
            "total_dies": lot.total_dies,
            "failed_ranges": [list(r) for r in lot.failed_ranges],
            "shard_runs": lot.shard_runs,
            "scalars": lot.scalars,
            "run_id": lot.run_id,
        }, indent=2))
    else:
        print(f"lot {lot.state}: {lot.total_dies} dies, "
              f"{int(lot.scalars['failed_dies'])} failed")
        for name in ("cap_mean_fF", "radial_centre_fF", "radial_drop_fF",
                     "zone_centre_fF", "zone_mid_fF", "zone_edge_fF"):
            if name in lot.scalars:
                print(f"  {name}: {lot.scalars[name]:.3f}")
        for lo, hi in lot.failed_ranges:
            print(f"  dies [{lo},{hi}) FAILED (shard exhausted retries)",
                  file=sys.stderr)
        if lot.run_id:
            print(f"recorded as {lot.run_id} in {args.record}")
    return lot.exit_code


def cmd_tech_list(args) -> int:
    from repro.technologies import get as get_technology
    from repro.technologies import names

    described = [get_technology(name).describe() for name in names()]
    if args.format == "json":
        print(json.dumps(described, indent=2))
        return 0
    for info in described:
        lo, hi = info["range_fF"]
        spec_lo, spec_hi = info["spec_window_fF"]
        print(f"{info['name']:8s} {info['display']}")
        print(f"  headline   : {info['headline']}")
        print(f"  reference  : {info['reference']}")
        print(f"  card       : {info['card']} "
              f"(VDD {info['vdd']:.1f} V, nominal {info['nominal_fF']:.1f} fF)")
        print(f"  range      : {lo:.1f}-{hi:.1f} fF over "
              f"{info['num_steps']} steps")
        print(f"  spec window: {spec_lo:.1f}-{spec_hi:.1f} fF")
        corners = ", ".join(
            f"{tag}={corner['nominal_fF']:.1f}fF"
            f"/vthn {corner['nmos_vth']:+.2f}"
            for tag, corner in info["corners"].items()
        )
        print(f"  corners    : {corners}")
    return 0


def _runs_ledger(args):
    from repro.obs import RunLedger

    return RunLedger(args.dir)


def cmd_runs_list(args) -> int:
    from repro.errors import LedgerError

    try:
        manifests = _runs_ledger(args).runs()
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.kind:
        manifests = [m for m in manifests if m.kind == args.kind]
    if args.format == "json":
        print(json.dumps([m.to_dict() for m in manifests], indent=2))
        return 0
    if not manifests:
        print(f"(no recorded runs in {args.dir})")
        return 0
    header = (
        f"{'run':<6} {'kind':<10} {'timestamp':<26} {'config':<13} "
        f"{'label':<16} scalars"
    )
    print(header)
    print("-" * len(header))
    for m in manifests:
        key_scalars = ", ".join(
            f"{name}={m.scalars[name]:.4g}"
            for name in ("cap_mean_fF", "code_centroid", "cells_per_second")
            if name in m.scalars
        )
        print(
            f"{m.run_id:<6} {m.kind:<10} {m.timestamp:<26} "
            f"{m.config_hash:<13} {m.label:<16} {key_scalars}"
        )
    return 0


def cmd_runs_show(args) -> int:
    from repro.errors import LedgerError

    try:
        manifest = _runs_ledger(args).get(args.run_id)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(manifest.to_dict(), indent=2))
        return 0
    print(f"run {manifest.run_id} ({manifest.kind})")
    print(f"  timestamp : {manifest.timestamp}")
    print(f"  label     : {manifest.label or '(none)'}")
    print(f"  config    : {manifest.config} (hash {manifest.config_hash})")
    print(f"  seed      : {manifest.seed}")
    print(f"  tech      : {manifest.tech}")
    print(f"  version   : {manifest.version}")
    print(f"  wall      : {manifest.wall_seconds:.3f}s"
          + (f" (cpu {manifest.cpu_seconds:.3f}s)"
             if manifest.cpu_seconds is not None else ""))
    print(f"  trace     : {manifest.trace_path or '(none)'}")
    print(f"  artifact  : {manifest.artifact or '(none)'}")
    print("  scalars   :")
    for name, value in sorted(manifest.scalars.items()):
        print(f"    {name:<20} {value:.6g}")
    return 0


def cmd_runs_diff(args) -> int:
    from repro.errors import LedgerError

    try:
        diff = _runs_ledger(args).diff(args.a, args.b)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.format_text())
    return 0


def cmd_runs_checkpoints(args) -> int:
    from repro.errors import CheckpointError, LedgerError
    from repro.resilience import list_checkpoints

    try:
        states = list_checkpoints(_runs_ledger(args))
    except (CheckpointError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([
            {
                "run_id": s.run_id,
                "kind": s.kind,
                "completed": len(s.completed),
                "total": s.total,
                "created": s.created,
            }
            for s in states
        ], indent=2))
        return 0
    if not states:
        print(f"(no unfinished runs in {args.dir})")
        return 0
    for s in states:
        # A wafer is one die range (kind "shard"); a fleet shard's
        # range resumes only in its fleet, whose root holds shards/sNN.
        command = "wafer" if s.kind == "shard" else s.kind
        hint = f"`repro {command} --resume {s.run_id} --checkpoint {args.dir}`"
        if "shard_id" in s.meta:
            root = os.path.normpath(os.path.join(args.dir, "..", ".."))
            hint = f"`repro fleet run --root {root}` with the fleet's options"
        print(f"{s.run_id}  {s.kind:<6} {len(s.completed)}/{s.total} units"
              f"  created {s.created or '(unknown)'}  (resume with {hint})")
    return 0


def cmd_runs_check(args) -> int:
    from repro.errors import LedgerError
    from repro.obs import DriftEngine, check_ledger

    engine = DriftEngine(min_runs=args.min_runs)
    try:
        report = check_ledger(_runs_ledger(args), kind=args.kind, engine=engine)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Embedded eDRAM capacitor measurement (DATE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    geometry = _geometry_parent()
    seed = _seed_parent()
    fmt = _format_parent()
    record = _record_parent()
    progress = _progress_parent()
    checkpoint = _checkpoint_parent()
    tech = _tech_parent()

    p = sub.add_parser("design", parents=[geometry, seed, tech],
                       help="size a measurement structure")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("abacus", parents=[geometry, seed, tech],
                       help="print the calibration abacus")
    p.set_defaults(func=cmd_abacus)

    p = sub.add_parser("scan",
                       parents=[geometry, seed, fmt, record, progress,
                                checkpoint, tech],
                       help="scan a synthesized array")
    p.add_argument("--healthy", action="store_true", help="no injected defects")
    p.add_argument("--nominal-ff", type=float, default=None, metavar="FF",
                   help="nominal cell capacitance in fF (default: the "
                        "technology card's nominal, 30 for edram; shift it "
                        "to inject process drift into recorded runs)")
    p.add_argument("--save", help="write the scan's planes to this path "
                   "(.npz appended if missing; read with repro.io.load_scan)")
    p.add_argument("--force-engine", action="store_true",
                   help="route every macro through the exact charge engine")
    p.add_argument("--preflight", action="store_true",
                   help="run the static ERC pass before scanning")
    p.add_argument("--trace", metavar="PATH",
                   help="record a span trace of the scan to this JSON-lines "
                        "path (summarize with `repro trace PATH`)")
    p.add_argument("--metrics", action="store_true",
                   help="collect and print the scan metrics summary table")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write collected metrics as JSON lines to this path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("diagnose",
                       parents=[geometry, seed, fmt, record, progress,
                                tech],
                       help="full diagnosis pipeline")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("trace", parents=[fmt],
                       help="summarize a span trace written by `scan --trace`")
    p.add_argument("paths", nargs="+", metavar="path",
                   help="JSON-lines trace file(s); several are merged "
                        "into one trace")
    p.add_argument("--timeline", action="store_true",
                   help="render a per-worker lane view (text Gantt, or "
                        "JSON with --format json) instead of the summary")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "lint",
        parents=[geometry, seed, fmt],
        help="static ERC / parameter / unit analysis (no solver runs)",
    )
    p.add_argument("--defects", action="store_true",
                   help="inject defects into the linted array (their findings "
                        "are waived unless --strict-defects)")
    p.add_argument("--strict-defects", action="store_true",
                   help="do not waive findings on known-defective cells")
    p.add_argument("--source", nargs="+", metavar="PATH",
                   help="also AST-lint these Python files/directories "
                        "(raw SI literals, bare asserts)")
    p.add_argument("--source-only", action="store_true",
                   help="skip netlist analysis; lint only --source paths")
    p.add_argument("--select", nargs="+", metavar="CODES",
                   help="only run/report these rule codes or prefixes, "
                        "comma- or space-separated (e.g. CCY,DET or ERC004)")
    p.add_argument("--waivers", metavar="PATH",
                   help="JSON waiver file suppressing known findings; each "
                        "entry needs code/location/reason and may carry an "
                        "expires date (expired waivers warn instead)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("wafer",
                       parents=[seed, record, progress, checkpoint,
                                tech],
                       help="wafer-level monitoring demo")
    p.add_argument("--diameter", type=int, default=7, help="wafer width in dies")
    p.set_defaults(func=cmd_wafer)

    p = sub.add_parser("fleet",
                       help="fault-tolerant sharded wafer runs "
                            "(supervised subprocesses + crash-safe merge)")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    fleet_root = argparse.ArgumentParser(add_help=False)
    fleet_root.add_argument("--root", default=".repro-fleet",
                            help="fleet directory (default .repro-fleet)")

    q = fleet_sub.add_parser("run", parents=[fleet_root, seed, fmt, tech],
                             help="run one wafer as supervised die-range "
                                  "shards (exit 0 healthy / 3 degraded / "
                                  "1 failed)")
    q.add_argument("--diameter", type=int, default=7,
                   help="wafer width in dies")
    q.add_argument("--shards", type=int, default=2,
                   help="die-range shards to split the wafer into")
    q.add_argument("--retries", type=int, default=2,
                   help="respawns per shard after its first death "
                        "(default 2)")
    q.add_argument("--heartbeat-timeout", type=float, default=30.0,
                   help="seconds without a lease heartbeat before a "
                        "worker is declared wedged and killed")
    q.add_argument("--label", default="", help="label recorded in fleet.json")
    q.set_defaults(func=cmd_fleet_run)

    q = fleet_sub.add_parser("status", parents=[fleet_root, fmt],
                             help="show fleet + per-shard lease state")
    q.set_defaults(func=cmd_fleet_status)

    q = fleet_sub.add_parser("merge", parents=[fleet_root, fmt],
                             help="merge shard results into the lot "
                                  "artifact (exit 0 healthy / 3 degraded "
                                  "/ 1 failed)")
    q.add_argument("--record", nargs="?", const=_DEFAULT_LEDGER_DIR,
                   metavar="DIR",
                   help="record a kind=lot manifest into this run ledger "
                        f"(default directory {_DEFAULT_LEDGER_DIR})")
    q.add_argument("--label", default="", help="manifest label")
    q.add_argument("--force", action="store_true",
                   help="merge even while shard workers are still alive "
                        "(their unfinished die ranges merge as FAILED)")
    q.set_defaults(func=cmd_fleet_merge)

    p = sub.add_parser("tech", help="inspect cell-technology backends")
    tech_sub = p.add_subparsers(dest="tech_command", required=True)
    q = tech_sub.add_parser("list", parents=[fmt],
                            help="list registered backends, cards and corners")
    q.set_defaults(func=cmd_tech_list)

    p = sub.add_parser("runs", help="browse and gate the run ledger")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    ledger_dir = argparse.ArgumentParser(add_help=False)
    ledger_dir.add_argument("--dir", default=_DEFAULT_LEDGER_DIR,
                            help="ledger directory "
                                 f"(default {_DEFAULT_LEDGER_DIR})")
    kinds = ("scan", "wafer", "diagnosis", "shard", "lot")

    q = runs_sub.add_parser("list", parents=[ledger_dir, fmt],
                            help="list recorded runs")
    q.add_argument("--kind", choices=kinds, help="only runs of this kind")
    q.set_defaults(func=cmd_runs_list)

    q = runs_sub.add_parser("show", parents=[ledger_dir, fmt],
                            help="show one run's manifest")
    q.add_argument("run_id", help="run id (see `repro runs list`)")
    q.set_defaults(func=cmd_runs_show)

    q = runs_sub.add_parser("diff", parents=[ledger_dir, fmt],
                            help="compare two recorded runs")
    q.add_argument("a", help="baseline run id")
    q.add_argument("b", help="candidate run id")
    q.set_defaults(func=cmd_runs_diff)

    q = runs_sub.add_parser(
        "checkpoints", parents=[ledger_dir, fmt],
        help="list unfinished (resumable) checkpointed runs")
    q.set_defaults(func=cmd_runs_checkpoints)

    q = runs_sub.add_parser(
        "check", parents=[ledger_dir, fmt],
        help="EWMA/CUSUM drift gate over recorded runs "
             "(exit 1 on out-of-control physics scalars)")
    q.add_argument("--kind", choices=kinds, help="only chart runs of this kind")
    q.add_argument("--min-runs", type=int, default=2,
                   help="minimum history length before charting (default 2)")
    q.set_defaults(func=cmd_runs_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Exit with the conventional SIGINT status instead of a
        # traceback (the resume hint, if any, is already printed).
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe mid-print;
        # detach stdout so the interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
