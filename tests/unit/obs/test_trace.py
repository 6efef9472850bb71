"""Tracer and span mechanics."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_TRACER, NullTracer, Span, Tracer


def make_clock(step=1.0):
    """Deterministic monotonic clock: 0, step, 2*step, ..."""
    ticks = iter(range(10_000))

    def clock():
        return next(ticks) * step

    return clock


class TestSpanNesting:
    def test_with_structure_becomes_parentage(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("scan"):
            with tracer.span("macro"):
                with tracer.span("cell"):
                    pass
            with tracer.span("macro"):
                pass
        scan, macro_a, cell, macro_b = tracer.spans
        assert scan.parent_id is None
        assert macro_a.parent_id == scan.span_id
        assert cell.parent_id == macro_a.span_id
        assert macro_b.parent_id == scan.span_id

    def test_span_ids_are_start_order(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.span_id for s in tracer.spans] == [0, 1]
        assert len(tracer) == 2

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer(clock=make_clock())
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None

    def test_sibling_roots(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots()] == ["first", "second"]

    def test_children_listing(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("root"):
            with tracer.span("kid-a"):
                pass
            with tracer.span("kid-b"):
                pass
        root = tracer.spans[0]
        assert [s.name for s in tracer.children(root)] == ["kid-a", "kid-b"]

    def test_walk_yields_depths(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [(s.name, d) for s, d in tracer.walk()] == [
            ("a", 0), ("b", 1), ("c", 2),
        ]


class TestSpanTiming:
    def test_durations_from_injected_clock(self):
        tracer = Tracer(clock=make_clock(step=0.5))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        # clock ticks: outer.start=0, inner.start=0.5, inner.end=1, outer.end=1.5
        assert outer.duration == pytest.approx(1.5)
        assert inner.duration == pytest.approx(0.5)
        assert inner.duration <= outer.duration

    def test_open_span_has_no_duration(self):
        tracer = Tracer(clock=make_clock())
        ctx = tracer.span("open")
        with ctx as span:
            assert span.end is None
            assert span.duration is None

    def test_span_closed_on_exception(self):
        tracer = Tracer(clock=make_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.spans[0].end is not None
        assert tracer.current is None


class TestSpanAttributes:
    def test_attributes_from_kwargs(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("cell", row=3, col=1):
            pass
        assert tracer.spans[0].attributes == {"row": 3, "col": 1}

    def test_attributes_live_until_exit(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("cell") as span:
            span.attributes["code"] = 7
        assert tracer.spans[0].attributes["code"] == 7


class TestTracerErrors:
    def test_empty_name_rejected(self):
        tracer = Tracer(clock=make_clock())
        with pytest.raises(ObservabilityError):
            tracer.span("")

    def test_misnested_close_rejected(self):
        tracer = Tracer(clock=make_clock())
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        with pytest.raises(ObservabilityError):
            outer.__exit__(None, None, None)

    def test_export_with_open_span_rejected(self):
        tracer = Tracer(clock=make_clock())
        tracer.span("open").__enter__()
        with pytest.raises(ObservabilityError):
            tracer.write_jsonl(io.StringIO())


class TestSerialization:
    def test_to_dict_round_trip(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("scan", rows=4):
            with tracer.span("macro", index=0):
                pass
        rebuilt = [Span.from_dict(d) for d in tracer.to_dicts()]
        assert rebuilt == tracer.spans

    def test_write_jsonl_one_object_per_line(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        buf = io.StringIO()
        tracer.write_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_write_jsonl_to_path(self, tmp_path):
        tracer = Tracer(clock=make_clock())
        with tracer.span("a"):
            pass
        target = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(target))
        assert json.loads(target.read_text().splitlines()[0])["name"] == "a"

    def test_from_dict_malformed_raises(self):
        with pytest.raises(ObservabilityError):
            Span.from_dict({"name": "x"})  # missing ids and start
        with pytest.raises(ObservabilityError):
            Span.from_dict({"name": "x", "span_id": "not-an-int",
                            "parent_id": None, "start": 0.0})


class TestNullTracer:
    def test_shared_singleton_context(self):
        assert NullTracer().span("a") is NULL_TRACER.span("b")

    def test_absorbs_attribute_writes(self):
        with NULL_TRACER.span("cell", row=1) as span:
            span.attributes["code"] = 7
            span.attributes.update(tier="charge")
        # nothing recorded anywhere
        assert not hasattr(NULL_TRACER, "spans")

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NULL_TRACER.enabled is False


class TestMerge:
    def _worker_spans(self):
        worker = Tracer(clock=make_clock())
        with worker.span("macro", index=7):
            with worker.span("cell", row=0):
                pass
        return worker.spans

    def test_merge_reassigns_ids_and_remaps_parents(self):
        parent = Tracer(clock=make_clock())
        with parent.span("scan"):
            pass
        merged = parent.merge(self._worker_spans())
        assert [s.span_id for s in parent.spans] == [0, 1, 2]
        macro, cell = merged
        assert macro.name == "macro" and cell.name == "cell"
        assert cell.parent_id == macro.span_id

    def test_merge_grafts_under_open_span(self):
        parent = Tracer(clock=make_clock())
        with parent.span("scan"):
            merged = parent.merge(self._worker_spans())
            assert merged[0].parent_id == parent.spans[0].span_id

    def test_merge_without_graft_keeps_roots(self):
        parent = Tracer(clock=make_clock())
        with parent.span("scan"):
            merged = parent.merge(self._worker_spans(), graft=False)
        assert merged[0].parent_id is None

    def test_merge_stamps_worker_identity(self):
        parent = Tracer(clock=make_clock())
        merged = parent.merge(self._worker_spans(), worker_id=3, pid=4242)
        for span in merged:
            assert span.attributes["worker_id"] == 3
            assert span.attributes["pid"] == 4242

    def test_merge_does_not_mutate_source_spans(self):
        source = self._worker_spans()
        Tracer(clock=make_clock()).merge(source, worker_id=1, pid=99)
        assert "worker_id" not in source[0].attributes
        assert source[0].span_id == 0

    def test_merge_rejects_open_spans(self):
        worker = Tracer(clock=make_clock())
        worker.span("macro").__enter__()
        parent = Tracer()
        with pytest.raises(ObservabilityError, match="before the span closed"):
            parent.merge(list(worker.spans))

    def test_merge_rejects_child_before_parent(self):
        orphan = Span(name="cell", span_id=5, parent_id=17, start=0.0, end=1.0)
        with pytest.raises(ObservabilityError, match="parent"):
            Tracer().merge([orphan])

    def test_merged_tree_walks_and_summarizes(self):
        from repro.obs import summarize_trace

        parent = Tracer(clock=make_clock())
        with parent.span("scan"):
            for worker_id in (0, 1):
                parent.merge(self._worker_spans(), worker_id=worker_id, pid=100 + worker_id)
        summary = summarize_trace(parent.spans)
        counts = {a.name: a.count for a in summary.aggregates}
        assert counts["macro"] == 2
        assert counts["cell"] == 2


class TestAtomicWrite:
    def test_write_jsonl_replaces_atomically(self, tmp_path, monkeypatch):
        import os as _os

        target = tmp_path / "trace.jsonl"
        target.write_text("stale\n")
        replaced = []
        real_replace = _os.replace

        def spying_replace(src, dst):
            replaced.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.resilience.durable.os.replace", spying_replace)
        tracer = Tracer(clock=make_clock())
        with tracer.span("scan"):
            pass
        tracer.write_jsonl(target)
        assert replaced and replaced[0][1] == str(target)
        assert replaced[0][0] == str(target) + ".tmp"
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "scan"

    def test_write_failure_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "trace.jsonl"

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.resilience.durable.os.replace", exploding_replace)
        tracer = Tracer(clock=make_clock())
        with tracer.span("scan"):
            pass
        with pytest.raises(OSError):
            tracer.write_jsonl(target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
