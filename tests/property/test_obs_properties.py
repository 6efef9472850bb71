"""Property-based tests of the tracing subsystem.

A tracer driven by ANY well-bracketed sequence of span opens/closes must
produce a proper forest: parents start before (and end after) their
children, ids are start-ordered, and the JSONL round trip is lossless.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import Tracer, load_trace, summarize_trace

# A trace program: "(" opens a span, ")" closes the innermost open one.
# Unmatched closes are dropped; spans left open at the end are closed —
# so every program maps to a valid nesting.
programs = st.lists(st.sampled_from("()"), max_size=60)


def run_program(program):
    ticks = iter(range(100_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    contexts = []
    names = iter(f"span-{i}" for i in range(len(program) + 1))
    for op in program:
        if op == "(":
            ctx = tracer.span(next(names), depth=len(contexts))
            ctx.__enter__()
            contexts.append(ctx)
        elif contexts:
            contexts.pop().__exit__(None, None, None)
    while contexts:
        contexts.pop().__exit__(None, None, None)
    return tracer


@given(programs)
@settings(max_examples=200, deadline=None)
def test_spans_form_a_proper_forest(program):
    tracer = run_program(program)
    by_id = {s.span_id: s for s in tracer.spans}
    assert [s.span_id for s in tracer.spans] == list(range(len(tracer.spans)))
    for span in tracer.spans:
        assert span.end is not None
        assert span.duration >= 0
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            # Children start after and finish before their parent.
            assert parent.span_id < span.span_id
            assert parent.start <= span.start
            assert span.end <= parent.end
            assert span.duration <= parent.duration


@given(programs)
@settings(max_examples=200, deadline=None)
def test_sibling_intervals_do_not_overlap(program):
    tracer = run_program(program)
    by_parent = {}
    for span in tracer.spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    for siblings in by_parent.values():
        for earlier, later in zip(siblings, siblings[1:]):
            assert earlier.end <= later.start


@given(programs)
@settings(max_examples=100, deadline=None)
def test_jsonl_round_trip_is_lossless(program):
    tracer = run_program(program)
    buf = io.StringIO()
    tracer.write_jsonl(buf)
    if not tracer.spans:
        # A span-free file is a loader error, not an empty success.
        with pytest.raises(ObservabilityError, match="no spans"):
            load_trace(io.StringIO(buf.getvalue()))
    else:
        assert load_trace(io.StringIO(buf.getvalue())) == tracer.spans


@given(programs)
@settings(max_examples=100, deadline=None)
def test_summary_accounts_for_every_span(program):
    tracer = run_program(program)
    if not tracer.spans:
        with pytest.raises(ObservabilityError, match="empty trace"):
            summarize_trace(tracer.spans)
        return
    summary = summarize_trace(tracer.spans)
    assert summary.total_spans == len(tracer.spans)
    assert sum(a.count for a in summary.aggregates) == len(tracer.spans)
    walked_depth = max((d for _, d in tracer.walk()), default=0)
    assert summary.max_depth == walked_depth
