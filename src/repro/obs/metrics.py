"""Metrics: counters, gauges and histograms with pluggable exporters.

Where :mod:`repro.obs.trace` answers "what happened, in what order,
inside *this* run", metrics answer the aggregate questions — how many
cells went through which tier, how many Newton iterations the solver
needed, how often the sequencer's netlist cache hit.  A
:class:`MetricsRegistry` owns named instruments:

- :class:`Counter` — monotonically increasing count (cells scanned,
  cache hits, solver fallbacks),
- :class:`Gauge` — last-written value (wall seconds of the most recent
  scan, worker count),
- :class:`Histogram` — value distribution with count/sum/min/max/mean
  and percentiles (codes per macro, per-phase durations, solver
  iterations).

Exporters: :meth:`MetricsRegistry.write_jsonl` (one instrument per
line, machine-readable) and :meth:`MetricsRegistry.summary_table`
(aligned text for humans; printed by ``repro scan --metrics``).

Ambient registry
----------------
Deep layers (the charge engine, the Newton solver) cannot thread a
registry argument through every call without polluting the numeric
APIs.  Instead they report to the **ambient** registry: a
context-variable that :func:`use_metrics` installs for the duration of
a ``with`` block and :func:`active_metrics` reads.  Outside any block
the ambient registry is :data:`NULL_METRICS`, whose instruments accept
updates and store nothing — the disabled path is a method call on a
shared singleton.  ``ArrayScanner.scan`` installs its
``ScanConfig.metrics`` registry ambiently, so engine-level instruments
land in the same registry as the scan-level ones.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "active_metrics",
    "use_metrics",
]


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "value": self.value}


class Gauge:
    """Last-written value (may go up or down)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "value": self.value}


class Histogram:
    """Value distribution; keeps every observation.

    Observation counts in this library are bounded by cells-per-scan and
    timesteps-per-flow, so storing raw values (simple, exact
    percentiles) beats bucketing.  Use :meth:`observe_many` for
    vectorized producers.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "values")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        if isinstance(values, np.ndarray):
            # Hot path: whole-macro code planes land here; tolist()
            # converts to native floats at C speed.
            self.values.extend(values.ravel().astype(float, copy=False).tolist())
        else:
            self.values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    @property
    def min(self) -> float:
        return min(self.values) if self.values else float("nan")

    @property
    def max(self) -> float:
        return max(self.values) if self.values else float("nan")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else float("nan")

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ObservabilityError(f"percentile must be in [0, 100], got {q}")
        if not self.values:
            return float("nan")
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter.

    ``counter``/``gauge``/``histogram`` get-or-create: the same name
    always returns the same instrument, and asking for an existing name
    with a different kind raises :class:`ObservabilityError` (a metric
    cannot silently change type mid-run).
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str):
        if not name:
            raise ObservabilityError("metric name must be non-empty")
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        """Instruments in name order (stable export order)."""
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """``{name: instrument dict}`` in name order."""
        return {m.name: m.to_dict() for m in self}

    def write_jsonl(self, target: str | TextIO) -> None:
        """Write one JSON object per instrument to a path (durably) or open file."""
        if hasattr(target, "write"):
            for metric in self:
                target.write(json.dumps(metric.to_dict()) + "\n")  # type: ignore[union-attr]
        else:
            from repro.resilience.durable import durable_write

            text = "".join(json.dumps(m.to_dict()) + "\n" for m in self)
            durable_write(target, lambda fh: fh.write(text.encode("utf-8")))  # type: ignore[arg-type]

    def summary_table(self) -> str:
        """Aligned text table of every instrument (the CLI's view)."""
        if not self._metrics:
            return "(no metrics recorded)"
        rows: list[tuple[str, str, str]] = []
        for metric in self:
            if isinstance(metric, Histogram):
                detail = (
                    f"count={metric.count} mean={metric.mean:.6g} "
                    f"min={metric.min:.6g} p50={metric.percentile(50):.6g} "
                    f"p95={metric.percentile(95):.6g} "
                    f"p99={metric.percentile(99):.6g} max={metric.max:.6g}"
                ) if metric.count else "count=0"
                rows.append((metric.name, "histogram", detail))
            else:
                rows.append((metric.name, metric.kind, f"{metric.value:.6g}"))
        width_name = max(len(r[0]) for r in rows)
        width_kind = max(len(r[1]) for r in rows)
        return "\n".join(
            f"{name:<{width_name}}  {kind:<{width_kind}}  {detail}"
            for name, kind, detail in rows
        )


class _NullCounter:
    __slots__ = ()
    kind = "counter"
    name = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = ""
    count = 0

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass


class NullMetricsRegistry:
    """No-op registry: shared instruments that discard every update."""

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def counter(self, name: str, help: str = "") -> _NullCounter:
        return self._COUNTER

    def gauge(self, name: str, help: str = "") -> _NullGauge:
        return self._GAUGE

    def histogram(self, name: str, help: str = "") -> _NullHistogram:
        return self._HISTOGRAM


#: Shared no-op registry; the ambient default.
NULL_METRICS = NullMetricsRegistry()

_ACTIVE: ContextVar[MetricsRegistry | NullMetricsRegistry] = ContextVar(
    "repro_obs_active_metrics", default=NULL_METRICS
)


def active_metrics() -> MetricsRegistry | NullMetricsRegistry:
    """The ambient registry installed by the nearest :func:`use_metrics`."""
    return _ACTIVE.get()


@contextmanager
def use_metrics(registry: MetricsRegistry | NullMetricsRegistry):
    """Install ``registry`` as the ambient registry for the block."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)
