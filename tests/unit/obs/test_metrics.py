"""Metrics instruments, registry, and the ambient-registry mechanism."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    use_metrics,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_decrease(self):
        with pytest.raises(ObservabilityError):
            Counter("hits").inc(-1)

    def test_gauge_keeps_last_value(self):
        g = Gauge("jobs")
        g.set(4)
        g.set(2)
        assert g.value == 2.0

    def test_histogram_statistics(self):
        h = Histogram("codes")
        h.observe_many([1, 2, 3, 4])
        h.observe(10)
        assert h.count == 5
        assert h.sum == 20
        assert h.min == 1
        assert h.max == 10
        assert h.mean == pytest.approx(4.0)
        assert h.percentile(50) == 3
        assert h.percentile(0) == 1
        assert h.percentile(100) == 10

    def test_histogram_percentiles_over_batches(self):
        batched = Histogram("scan.macro_seconds")
        batched.observe_many([8, 2, 5])
        batched.observe_many([1, 7, 3, 6, 4])
        whole = Histogram("scan.macro_seconds")
        whole.observe_many([1, 2, 3, 4, 5, 6, 7, 8])
        assert batched.count == 8
        for q in (0, 50, 95, 99, 100):
            assert batched.percentile(q) == whole.percentile(q)
        assert batched.percentile(95) == 8

    def test_histogram_empty_statistics_are_nan(self):
        import math

        h = Histogram("empty")
        assert h.count == 0
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(95))

    def test_histogram_percentile_range_checked(self):
        with pytest.raises(ObservabilityError):
            Histogram("codes").percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("scan.cells") is reg.counter("scan.cells")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("")

    def test_iteration_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.gauge("alpha")
        assert [m.name for m in reg] == ["alpha", "zeta"]
        assert len(reg) == 2

    def test_get_by_name(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        assert reg.get("hits") is c
        assert reg.get("absent") is None

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.histogram("codes").observe_many([1, 2])
        d = reg.to_dict()
        assert d["hits"] == {"kind": "counter", "name": "hits", "value": 3.0}
        assert d["codes"]["count"] == 2
        assert d["codes"]["p50"] in (1, 2)
        assert {"p50", "p95", "p99"} <= set(d["codes"])
        assert d["codes"]["p99"] == 2

    def test_write_jsonl(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.gauge("jobs").set(2)
        buf = io.StringIO()
        reg.write_jsonl(buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["name"] for r in records] == ["hits", "jobs"]

    def test_write_jsonl_to_path(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        target = tmp_path / "metrics.jsonl"
        reg.write_jsonl(str(target))
        assert json.loads(target.read_text())["name"] == "hits"

    def test_summary_table(self):
        reg = MetricsRegistry()
        reg.counter("scan.cells").inc(32)
        reg.histogram("scan.codes").observe_many([3, 5])
        table = reg.summary_table()
        assert "scan.cells" in table
        assert "counter" in table
        assert "count=2" in table
        for column in ("p50=", "p95=", "p99="):
            assert column in table

    def test_summary_table_empty(self):
        assert "no metrics" in MetricsRegistry().summary_table()


class TestNullRegistry:
    def test_discards_updates(self):
        NULL_METRICS.counter("x").inc(5)
        NULL_METRICS.gauge("y").set(3)
        NULL_METRICS.histogram("z").observe_many([1, 2])
        assert NULL_METRICS.counter("x").value == 0.0
        assert NULL_METRICS.histogram("z").count == 0

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled is True
        assert NULL_METRICS.enabled is False


class TestAmbientRegistry:
    def test_default_is_null(self):
        assert active_metrics() is NULL_METRICS

    def test_use_metrics_installs_and_restores(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            assert active_metrics() is reg
            active_metrics().counter("deep.hits").inc()
        assert active_metrics() is NULL_METRICS
        assert reg.counter("deep.hits").value == 1.0

    def test_nested_blocks_shadow(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_metrics(outer):
            with use_metrics(inner):
                assert active_metrics() is inner
            assert active_metrics() is outer

    def test_restored_after_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_metrics(reg):
                raise RuntimeError("boom")
        assert active_metrics() is NULL_METRICS
