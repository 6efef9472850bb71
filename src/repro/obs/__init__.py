"""Observability: tracing and metrics for the measurement hot paths.

The paper's flow is a pipeline — scan → macro → phase 1–5 — and
this package makes the pipeline visible without changing it:

- :mod:`repro.obs.trace` — :class:`Tracer` records nested, timed,
  attributed spans; :data:`NULL_TRACER` is the zero-cost default.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` owns counters,
  gauges and histograms; deep layers report through the **ambient**
  registry (:func:`use_metrics` / :func:`active_metrics`) so the
  numeric APIs stay clean.
- :mod:`repro.obs.summarize` — reads exported traces back, merges
  multi-process traces, aggregates them and renders per-worker
  timelines (the ``repro trace`` subcommand).
- :mod:`repro.obs.progress` — live completion/throughput/ETA reporting
  for long scans (TTY status line or JSONL event stream);
  :data:`NULL_PROGRESS` is the zero-cost default.
- :mod:`repro.obs.ledger` — :class:`RunLedger` records append-only run
  manifests (config hash, seed, stats, metrics, bitmap scalars) into a
  ``.repro-runs/`` directory; ``repro runs list/show/diff`` read it.
- :mod:`repro.obs.drift` — EWMA/CUSUM control charts over recorded
  runs; :func:`check_ledger` backs the ``repro runs check`` CI gate.

Everything is opt-in: the instrumented code paths are pinned bit-exact
against their un-instrumented behaviour, and the disabled path costs a
no-op method call.  Sits with the foundations layer — the hot-path
modules import only :mod:`repro.errors`; the cross-run modules (ledger,
drift) may additionally use :mod:`repro.lint.diagnostics` for their
finding shape and :mod:`repro.io` for artifacts.  Every layer above may
use this package.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.drift import (
        DEFAULT_SCALARS,
        LOT_SCALARS,
        DriftEngine,
        ScalarSpec,
        SeriesCheck,
        check_bench_history,
        check_ledger,
    )
    from repro.obs.ledger import (
        DEFAULT_LEDGER_DIR,
        RunDiff,
        RunLedger,
        RunManifest,
        bitmap_scalars,
        config_fingerprint,
        config_hash,
        scan_scalars,
    )
    from repro.obs.metrics import (
        NULL_METRICS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        NullMetricsRegistry,
        active_metrics,
        use_metrics,
    )
    from repro.obs.progress import (
        NULL_PROGRESS,
        JsonlProgress,
        NullProgress,
        ProgressReporter,
    )
    from repro.obs.summarize import (
        SpanAggregate,
        TraceSummary,
        load_trace,
        merge_traces,
        render_timeline,
        summarize_trace,
        timeline_dict,
    )
    from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

_EXPORTS = {
    "RunLedger": "repro.obs.ledger",
    "RunManifest": "repro.obs.ledger",
    "RunDiff": "repro.obs.ledger",
    "DEFAULT_LEDGER_DIR": "repro.obs.ledger",
    "config_fingerprint": "repro.obs.ledger",
    "config_hash": "repro.obs.ledger",
    "scan_scalars": "repro.obs.ledger",
    "bitmap_scalars": "repro.obs.ledger",
    "DriftEngine": "repro.obs.drift",
    "ScalarSpec": "repro.obs.drift",
    "SeriesCheck": "repro.obs.drift",
    "DEFAULT_SCALARS": "repro.obs.drift",
    "LOT_SCALARS": "repro.obs.drift",
    "check_ledger": "repro.obs.drift",
    "check_bench_history": "repro.obs.drift",
    "ProgressReporter": "repro.obs.progress",
    "JsonlProgress": "repro.obs.progress",
    "NullProgress": "repro.obs.progress",
    "NULL_PROGRESS": "repro.obs.progress",
    "Tracer": "repro.obs.trace",
    "NullTracer": "repro.obs.trace",
    "Span": "repro.obs.trace",
    "NULL_TRACER": "repro.obs.trace",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "NullMetricsRegistry": "repro.obs.metrics",
    "NULL_METRICS": "repro.obs.metrics",
    "active_metrics": "repro.obs.metrics",
    "use_metrics": "repro.obs.metrics",
    "load_trace": "repro.obs.summarize",
    "merge_traces": "repro.obs.summarize",
    "render_timeline": "repro.obs.summarize",
    "timeline_dict": "repro.obs.summarize",
    "summarize_trace": "repro.obs.summarize",
    "TraceSummary": "repro.obs.summarize",
    "SpanAggregate": "repro.obs.summarize",
}

__all__ = [
    "RunLedger",
    "RunManifest",
    "RunDiff",
    "DEFAULT_LEDGER_DIR",
    "config_fingerprint",
    "config_hash",
    "scan_scalars",
    "bitmap_scalars",
    "DriftEngine",
    "ScalarSpec",
    "SeriesCheck",
    "DEFAULT_SCALARS",
    "LOT_SCALARS",
    "check_ledger",
    "check_bench_history",
    "ProgressReporter",
    "JsonlProgress",
    "NullProgress",
    "NULL_PROGRESS",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "active_metrics",
    "use_metrics",
    "load_trace",
    "merge_traces",
    "render_timeline",
    "timeline_dict",
    "summarize_trace",
    "TraceSummary",
    "SpanAggregate",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
