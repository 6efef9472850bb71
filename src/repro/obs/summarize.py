"""Reading traces back: load, validate, aggregate, render.

``repro scan --trace out.jsonl`` writes one JSON span per line; this
module is the consumer side — the engine behind the ``repro trace``
subcommand and the programmatic entry point for notebooks:

    from repro.obs import load_trace, summarize_trace
    spans = load_trace("out.jsonl")
    print(summarize_trace(spans).table())

:func:`load_trace` validates tree structure on the way in (parents must
exist and start before their children; a malformed file raises
:class:`~repro.errors.ObservabilityError` instead of producing a
nonsense summary).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, TextIO

from repro.errors import ObservabilityError
from repro.obs.trace import Span, Tracer

__all__ = [
    "SpanAggregate",
    "TraceSummary",
    "load_trace",
    "merge_traces",
    "render_timeline",
    "summarize_trace",
    "timeline_dict",
]


def load_trace(source: str | TextIO) -> list[Span]:
    """Load spans from a JSON-lines trace file (path or open file).

    Returns spans in file order (the producer's start order) after
    validating that every ``parent_id`` refers to an earlier span.
    A missing path, a file with no spans at all, or one cut off
    mid-record (a crashed or still-writing producer), raises
    :class:`~repro.errors.ObservabilityError` naming the offending file
    instead of silently yielding a nonsense summary.
    """
    name = getattr(source, "name", None) if hasattr(source, "read") else source
    if hasattr(source, "read"):
        lines = source.read().splitlines()  # type: ignore[union-attr]
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:  # type: ignore[arg-type]
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read trace file {source!s}: {exc}"
            ) from exc
    spans: list[Span] = []
    seen: set[int] = set()
    last_lineno = max(
        (i for i, line in enumerate(lines, start=1) if line.strip()), default=0
    )
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last_lineno:
                raise ObservabilityError(
                    f"trace line {lineno} is truncated mid-record "
                    f"(incomplete write?): {exc}"
                ) from exc
            raise ObservabilityError(
                f"trace line {lineno} is not valid JSON: {exc}"
            ) from exc
        span = Span.from_dict(data)
        if span.parent_id is not None and span.parent_id not in seen:
            raise ObservabilityError(
                f"trace line {lineno}: span {span.span_id} references "
                f"unknown parent {span.parent_id}"
            )
        seen.add(span.span_id)
        spans.append(span)
    if not spans:
        where = f" in {name}" if name else ""
        raise ObservabilityError(
            f"trace{where} contains no spans (empty or blank file)"
        )
    return spans


def merge_traces(traces: "Iterable[list[Span]]") -> list[Span]:
    """Combine several span lists into one re-identified trace.

    Used by ``repro trace a.jsonl b.jsonl ...`` to view several traces
    (separate runs, or per-process spool files) together: each input
    keeps its internal parent links (re-mapped into one id space), its
    roots stay roots, and the combined list preserves parent-before-child
    order so :func:`summarize_trace` and the timeline renderer accept it
    directly.  Span timestamps are assumed comparable (``perf_counter``
    is system-wide monotonic on Linux, shared across forked workers).
    """
    combined = Tracer()
    for spans in traces:
        combined.merge(spans, graft=False)
    if not combined.spans:
        raise ObservabilityError("cannot merge empty traces (no spans)")
    return combined.spans


def _span_lane(span: Span) -> str:
    worker_id = span.attributes.get("worker_id")
    return "parent" if worker_id is None else f"w{worker_id}"


def timeline_dict(spans: list[Span]) -> dict[str, Any]:
    """Per-worker lane view of a merged trace, JSON-ready.

    Lanes: ``parent`` for spans produced in the parent process, ``w<n>``
    for spans merged from worker ``n`` (the ``worker_id`` attribute the
    merge stamps).  Each lane lists its *lane-root* spans — spans whose
    parent lives in a different lane (or nowhere), i.e. the intervals
    during which that process was doing the work its lane shows.  Times
    are seconds relative to the earliest span start.
    """
    if not spans:
        raise ObservabilityError("cannot render a timeline of an empty trace")
    t0 = min(s.start for s in spans)
    lane_of = {s.span_id: _span_lane(s) for s in spans}
    lanes: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        lane = lane_of[span.span_id]
        parent_lane = (
            lane_of.get(span.parent_id) if span.parent_id is not None else None
        )
        if parent_lane == lane:
            continue
        entry: dict[str, Any] = {
            "name": span.name,
            "start": span.start - t0,
            "end": None if span.end is None else span.end - t0,
            "duration": span.duration,
        }
        pid = span.attributes.get("pid")
        if pid is not None:
            entry["pid"] = pid
        lanes.setdefault(lane, []).append(entry)

    def _lane_key(lane: str) -> tuple[int, float]:
        return (0, 0.0) if lane == "parent" else (1, float(lane[1:]))

    end = max((s.end for s in spans if s.end is not None), default=t0)
    return {
        "duration_seconds": end - t0,
        "lanes": [
            {"lane": lane, "spans": lanes[lane]}
            for lane in sorted(lanes, key=_lane_key)
        ],
    }


def render_timeline(spans: list[Span], width: int = 72) -> str:
    """Text Gantt of the per-worker lanes (the ``--timeline`` view).

    One row per lane; ``█`` marks instants the lane had a lane-root
    span open, ``·`` marks idle.  The right-hand column totals the
    lane's busy seconds and span count — enough to spot a straggler
    worker at a glance.
    """
    data = timeline_dict(spans)
    total = data["duration_seconds"]
    scale = total if total > 0 else 1.0
    label_width = max(
        (len(lane["lane"]) for lane in data["lanes"]), default=6
    )
    lines = [
        f"timeline: {total * 1e3:.3f} ms total, "
        f"{len(data['lanes'])} lanes ({width} cols)"
    ]
    for lane in data["lanes"]:
        cells = [False] * width
        busy = 0.0
        for entry in lane["spans"]:
            if entry["end"] is None:
                continue
            busy += entry["end"] - entry["start"]
            lo = int(entry["start"] / scale * (width - 1))
            hi = int(entry["end"] / scale * (width - 1))
            for i in range(lo, min(hi, width - 1) + 1):
                cells[i] = True
        bar = "".join("█" if c else "·" for c in cells)
        lines.append(
            f"{lane['lane']:<{label_width}} |{bar}| "
            f"{busy * 1e3:9.3f} ms  {len(lane['spans'])} spans"
        )
    return "\n".join(lines)


@dataclass
class SpanAggregate:
    """Aggregate over every span sharing one name.

    Percentiles are nearest-rank over the group's closed durations —
    the tail figures (p95/p99) are what distinguish a uniformly slow
    phase from a straggler macro.
    """

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    max_seconds: float
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0
    p99_seconds: float = 0.0


@dataclass
class TraceSummary:
    """Per-name aggregates plus whole-trace shape facts."""

    aggregates: list[SpanAggregate]
    total_spans: int
    max_depth: int
    names: set[str]

    def covers(self, *names: str) -> bool:
        """True if every given span name appears in the trace."""
        return all(name in self.names for name in names)

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_spans": self.total_spans,
            "max_depth": self.max_depth,
            "spans": [
                {
                    "name": a.name,
                    "count": a.count,
                    "total_seconds": a.total_seconds,
                    "mean_seconds": a.mean_seconds,
                    "max_seconds": a.max_seconds,
                    "p50_seconds": a.p50_seconds,
                    "p95_seconds": a.p95_seconds,
                    "p99_seconds": a.p99_seconds,
                }
                for a in self.aggregates
            ],
        }

    def table(self) -> str:
        """Aligned text table, widest total first."""
        header = (
            f"{'span':<18} {'count':>7} {'total':>12} {'mean':>12} "
            f"{'p50':>12} {'p95':>12} {'p99':>12} {'max':>12}"
        )
        lines = [header, "-" * len(header)]
        for a in self.aggregates:
            lines.append(
                f"{a.name:<18} {a.count:>7} "
                f"{a.total_seconds * 1e3:>10.3f}ms "
                f"{a.mean_seconds * 1e3:>10.4f}ms "
                f"{a.p50_seconds * 1e3:>10.4f}ms "
                f"{a.p95_seconds * 1e3:>10.4f}ms "
                f"{a.p99_seconds * 1e3:>10.4f}ms "
                f"{a.max_seconds * 1e3:>10.4f}ms"
            )
        lines.append(f"{self.total_spans} spans, max depth {self.max_depth}")
        return "\n".join(lines)


def _nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def summarize_trace(spans: list[Span]) -> TraceSummary:
    """Aggregate a span list by name (closed spans only count time).

    An empty span list raises :class:`~repro.errors.ObservabilityError`:
    there is nothing to aggregate, and a zeroed summary downstream reads
    as "the scan did no work" rather than "the trace was empty".
    """
    if not spans:
        raise ObservabilityError("cannot summarize an empty trace (no spans)")
    groups: dict[str, list[float]] = {}
    depth: dict[int, int] = {}
    max_depth = 0
    for span in spans:
        if span.parent_id is None:
            d = 0
        else:
            try:
                d = depth[span.parent_id] + 1
            except KeyError:
                raise ObservabilityError(
                    f"span {span.span_id} references unknown parent {span.parent_id}"
                ) from None
        depth[span.span_id] = d
        max_depth = max(max_depth, d)
        groups.setdefault(span.name, []).append(
            span.duration if span.duration is not None else 0.0
        )
    aggregates = []
    for name, durations in groups.items():
        ordered = sorted(durations)
        aggregates.append(
            SpanAggregate(
                name=name,
                count=len(durations),
                total_seconds=sum(durations),
                mean_seconds=sum(durations) / len(durations),
                max_seconds=ordered[-1],
                p50_seconds=_nearest_rank(ordered, 50),
                p95_seconds=_nearest_rank(ordered, 95),
                p99_seconds=_nearest_rank(ordered, 99),
            )
        )
    aggregates.sort(key=lambda a: -a.total_seconds)
    return TraceSummary(
        aggregates=aggregates,
        total_spans=len(spans),
        max_depth=max_depth,
        names=set(groups),
    )
