"""Tracing: nested spans over the measurement hot paths.

The measurement flow is pipeline-shaped — scan → macro → phase 1–5,
or cell → phase 1–5 for a single measurement — and the production
questions about it are pipeline questions: where does the wall time go,
which tier produced which code, which macro was the straggler.  A :class:`Tracer` answers them by
recording **spans**: named intervals with wall-clock start/end times,
free-form attributes, and a parent link that makes the recording a
forest mirroring the call nesting.

The span taxonomy used by the instrumented hot paths (see
``docs/architecture.md`` for the full table):

- ``scan`` — one whole-array scan,
- ``macro`` — one macro-cell tile inside a scan,
- ``cell`` — one single-cell measurement (``measure_charge`` with one
  target, ``measure_transient``),
- ``phase:discharge`` / ``phase:charge`` / ``phase:isolate`` /
  ``phase:share`` / ``phase:convert`` — the paper's five measurement
  phases, under a cell or, for an engine macro of a scan, under its
  ``macro`` span (phases 1–4 solve every cell at once, with ``cells=``),
- ``diagnosis`` / ``stage:*`` — the diagnosis pipeline and its stages.

Tracing is strictly opt-in.  Every instrumented call site defaults to
:data:`NULL_TRACER`, whose ``span()`` returns one shared, allocation-free
no-op context manager — the disabled path costs one method call and no
memory, and is pinned bit-exact against the un-instrumented scan by the
test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro.errors import ObservabilityError

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(slots=True)
class Span:
    """One named, timed interval in a trace.

    Attributes
    ----------
    name:
        Span kind (``"scan"``, ``"macro"``, ``"phase:share"``, ...).
    span_id:
        Identifier unique within the producing tracer (start order).
    parent_id:
        ``span_id`` of the enclosing span, or ``None`` for roots.
    start, end:
        Wall-clock instants from the tracer's clock (``perf_counter``
        by default; origin is arbitrary, differences are seconds).
        ``end`` is ``None`` while the span is still open.
    attributes:
        Free-form key→value annotations (tier, cache hit, code, ...).
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Span length in seconds, or ``None`` while open."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (one trace-file line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        try:
            return cls(
                name=data["name"],
                span_id=int(data["span_id"]),
                parent_id=None if data["parent_id"] is None else int(data["parent_id"]),
                start=float(data["start"]),
                end=None if data.get("end") is None else float(data["end"]),
                attributes=dict(data.get("attributes", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed span record: {data!r}") from exc


class _SpanContext:
    """Context manager that closes its span on exit (exceptions included).

    Contexts are pooled per nesting depth on the tracer: strict ``with``
    nesting means the context at depth *d* is always exited before
    another span opens at depth *d*, so each slot can be reused — one
    allocation per depth instead of one per span.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Records a forest of nested spans.

    Nesting follows the ``with`` structure: a span opened while another
    is open becomes its child.  Spans are kept in start order; export
    with :meth:`write_jsonl` (one JSON object per line) and read back
    with :func:`repro.obs.summarize.load_trace`.

    Parameters
    ----------
    clock:
        Monotonic time source, seconds.  Injectable for deterministic
        tests; defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._contexts: list[_SpanContext] = []

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a span named ``name``; use as a context manager.

        The yielded :class:`Span` is live — callers may add attributes
        to it (``span.attributes["code"] = 7``) until the block exits.
        """
        if not name:
            raise ObservabilityError("span name must be non-empty")
        stack = self._stack
        parent = stack[-1].span_id if stack else None
        span = Span(
            name=name,
            span_id=len(self.spans),
            parent_id=parent,
            start=self._clock(),
            attributes=attributes,
        )
        self.spans.append(span)
        depth = len(stack)
        stack.append(span)
        if depth < len(self._contexts):
            context = self._contexts[depth]
            context._span = span
        else:
            context = _SpanContext(self, span)
            self._contexts.append(context)
        return context

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order (misnested trace)"
            )
        self._stack.pop()
        span.end = self._clock()

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Spans with no parent, in start order."""
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in start order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Yield ``(span, depth)`` depth-first in start order."""
        depth: dict[int, int] = {}
        for span in self.spans:
            d = 0 if span.parent_id is None else depth[span.parent_id] + 1
            depth[span.span_id] = d
            yield span, d

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every span as a JSON-ready dict, in start order."""
        return [span.to_dict() for span in self.spans]

    def merge(
        self,
        spans: Iterable[Span],
        *,
        parent_id: int | None = None,
        graft: bool = True,
        worker_id: int | None = None,
        pid: int | None = None,
    ) -> list[Span]:
        """Graft a remote tracer's spans into this trace.

        ``spans`` must be in start order with parents preceding children
        (the order a :class:`Tracer` records them in).  Each span is
        re-identified into this tracer's id space, internal parent links
        are remapped, and former roots are attached under ``parent_id``
        — or, when ``graft`` is true and ``parent_id`` is ``None``,
        under the currently open span, so spans recorded elsewhere (a
        worker process, another shard) nest under the caller's open span.
        ``worker_id``/``pid`` are stamped into every merged span's
        attributes, marking which process produced it.

        Returns the merged (re-identified) spans, in start order.
        """
        if parent_id is None and graft and self._stack:
            parent_id = self._stack[-1].span_id
        id_map: dict[int, int] = {}
        merged: list[Span] = []
        for span in spans:
            if span.end is None:
                raise ObservabilityError(
                    f"cannot merge open span {span.name!r} (remote trace "
                    "shipped before the span closed)"
                )
            if span.parent_id is None:
                new_parent = parent_id
            else:
                try:
                    new_parent = id_map[span.parent_id]
                except KeyError:
                    raise ObservabilityError(
                        f"span {span.name!r} arrived before its parent "
                        f"(id {span.parent_id}); merge input must be in "
                        "start order"
                    ) from None
            attributes = dict(span.attributes)
            if worker_id is not None:
                attributes["worker_id"] = worker_id
            if pid is not None:
                attributes["pid"] = pid
            new_span = Span(
                name=span.name,
                span_id=len(self.spans),
                parent_id=new_parent,
                start=span.start,
                end=span.end,
                attributes=attributes,
            )
            id_map[span.span_id] = new_span.span_id
            self.spans.append(new_span)
            merged.append(new_span)
        return merged

    def write_jsonl(self, target: str | TextIO) -> None:
        """Write the trace as JSON lines to a path or open text file.

        Path targets go through
        :func:`~repro.resilience.durable.durable_write`, so a process
        killed mid-export never leaves a truncated trace file behind.
        """
        if self._stack:
            open_names = ", ".join(s.name for s in self._stack)
            raise ObservabilityError(
                f"cannot export a trace with open spans ({open_names})"
            )
        if hasattr(target, "write"):
            for span in self.spans:
                target.write(json.dumps(span.to_dict()) + "\n")  # type: ignore[union-attr]
            return
        from repro.resilience.durable import durable_write

        text = "".join(json.dumps(span.to_dict()) + "\n" for span in self.spans)
        durable_write(target, lambda fh: fh.write(text.encode("utf-8")))  # type: ignore[arg-type]


class _NullAttributes:
    """Attribute sink that accepts writes and stores nothing."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def update(self, *args: Any, **kwargs: Any) -> None:
        pass


class _NullSpan:
    """The span yielded by the no-op tracer; absorbs annotations."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes = _NullAttributes()


class _NullSpanContext:
    __slots__ = ()

    _SPAN = _NullSpan()

    def __enter__(self) -> _NullSpan:
        return self._SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """Zero-cost tracer: ``span()`` hands back one shared no-op context.

    Instrumented code is written against this default — no branches, no
    allocations on the disabled path.  ``enabled`` lets call sites skip
    work that only exists to annotate spans (e.g. formatting an
    attribute value) when nobody is listening.
    """

    enabled = False

    _CONTEXT = _NullSpanContext()

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return self._CONTEXT


#: Shared no-op tracer; the default everywhere tracing is optional.
NULL_TRACER = NullTracer()
