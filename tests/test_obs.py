"""Unit tests for the observability layer (repro.obs)."""

import json
import math

import pytest

from repro.obs import (
    Histogram,
    MetricsError,
    MetricsRegistry,
    TraceError,
    registry_to_dict,
    registry_to_json,
    render_report,
)
from repro.simnet.events import Simulator


class TestCounter:
    def test_increments(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(2)
        assert reg.value("x") == 3

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("x").inc(-1)

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("drops", site="A").inc()
        reg.counter("drops", site="B").inc(5)
        assert reg.value("drops", site="A") == 1
        assert reg.value("drops", site="B") == 5

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("m", a=1, b=2).inc()
        assert reg.counter("m", b=2, a=1).value == 1

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError):
            reg.gauge("x")


class TestGauge:
    def test_set_and_add(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("queue")
        gauge.set(10)
        gauge.add(-3)
        assert reg.value("queue") == 7


class TestHistogram:
    def test_empty_percentile_is_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.percentile(50))

    def test_single_value_everywhere(self):
        hist = Histogram("h")
        hist.observe(0.25)
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == pytest.approx(0.25)

    def test_percentiles_bounded_relative_error(self):
        # Uniform 1..1000: log-linear bucketing must place every
        # percentile within the ~1/(2*16) relative error bound.
        hist = Histogram("h")
        for v in range(1, 1001):
            hist.observe(float(v))
        for q, exact in ((50, 500), (90, 900), (99, 990)):
            assert hist.percentile(q) == pytest.approx(exact, rel=1 / 16)

    def test_percentiles_clamped_to_observed_range(self):
        hist = Histogram("h")
        hist.observe(3.0)
        hist.observe(5.0)
        assert hist.percentile(0) >= 3.0
        assert hist.percentile(100) <= 5.0

    def test_wide_dynamic_range(self):
        # Microseconds to hundreds of seconds in one histogram.
        hist = Histogram("h")
        for v in (1e-6, 1e-3, 1.0, 300.0):
            hist.observe(v)
        assert hist.percentile(100) == pytest.approx(300.0, rel=1 / 16)
        assert hist.percentile(1) == pytest.approx(1e-6, rel=1 / 16)

    def test_zero_goes_to_underflow_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(1.0)
        assert hist.percentile(50) == 0.0

    def test_negative_and_nan_rejected(self):
        hist = Histogram("h")
        with pytest.raises(MetricsError):
            hist.observe(-0.1)
        with pytest.raises(MetricsError):
            hist.observe(float("nan"))

    def test_percentile_out_of_range_rejected(self):
        hist = Histogram("h")
        with pytest.raises(MetricsError):
            hist.percentile(101)

    def test_mean_is_exact(self):
        hist = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        assert hist.mean == pytest.approx(2.0)


class TestSpans:
    def test_nested_spans_record_parent_and_depth(self):
        reg = MetricsRegistry()
        with reg.span("outer") as outer:
            with reg.span("inner") as inner:
                pass
        assert inner.parent is outer
        assert inner.depth == 1
        assert outer.depth == 0
        assert [s.name for s in reg.spans] == ["inner", "outer"]

    def test_span_duration_uses_simulated_clock(self):
        sim = Simulator()
        reg = MetricsRegistry.for_simulator(sim)
        span = reg.start_span("op")
        sim.schedule(1.5, lambda: None)
        sim.run()
        span.finish()
        assert span.duration == pytest.approx(1.5)

    def test_finished_span_feeds_histogram(self):
        sim = Simulator()
        reg = MetricsRegistry.for_simulator(sim)
        span = reg.start_span("2pc.prepare", chain="corp")
        sim.schedule(0.065, lambda: None)
        sim.run()
        span.finish()
        [hist] = reg.find("span.2pc.prepare")
        assert hist.count == 1
        assert hist.mean == pytest.approx(0.065)

    def test_double_finish_rejected(self):
        reg = MetricsRegistry()
        span = reg.start_span("op")
        span.finish()
        with pytest.raises(TraceError):
            span.finish()

    def test_out_of_order_finish_rejected(self):
        reg = MetricsRegistry()
        outer = reg.span("outer")
        reg.span("inner")
        with pytest.raises(MetricsError):
            outer.finish()

    def test_detached_span_does_not_join_stack(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            detached = reg.start_span("io")
            with reg.span("inner") as inner:
                pass
            detached.finish()
        assert detached.parent is None
        assert inner.parent.name == "outer"

    def test_span_cap_counts_drops(self):
        reg = MetricsRegistry()
        reg.MAX_SPANS = 2
        for _ in range(5):
            reg.start_span("op").finish()
        assert len(reg.spans) == 2
        assert reg.spans_dropped == 3
        # The histogram aggregation still sees every span.
        [hist] = reg.find("span.op")
        assert hist.count == 5


class TestReport:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("bus.wan_drops", site="A").inc(3)
        reg.gauge("queue").set(7)
        reg.histogram("lat").observe(0.5)
        reg.start_span("op").finish()
        return reg

    def test_text_report_has_all_sections(self):
        report = render_report(self.build(), title="t")
        assert "== t ==" in report
        assert "bus.wan_drops{site=A} 3" in report
        assert "-- histograms --" in report
        assert "-- spans (newest last) --" in report

    def test_json_round_trip(self):
        data = json.loads(registry_to_json(self.build()))
        assert data["counters"]["bus.wan_drops{site=A}"] == 3
        assert data["histograms"]["lat"]["count"] == 1
        assert data["spans"][0]["name"] == "op"

    def test_dict_has_span_metadata(self):
        data = registry_to_dict(self.build())
        assert data["spans_dropped"] == 0
        assert data["spans"][0]["duration"] is not None


class TestOneCountOnePlace:
    """A component that keeps a count in a plain attribute takes no
    registry: ``obs.collect`` reads the attribute at report time."""

    def test_counting_components_take_no_registry(self):
        import inspect

        from repro.dataplane.flowtable import FlowTable
        from repro.dataplane.forwarder import DataPlane, Forwarder
        from repro.federation.ha import FederationFailover
        from repro.federation.nodes import RegionalNode
        from repro.resilience.deadline import DeadlineManager
        from repro.resilience.failover import FailoverManager
        from repro.resilience.rpc import RpcLayer
        from repro.resilience.sweeper import ReconciliationSweeper
        from repro.scale.cache import SolutionCache

        classes = [
            RpcLayer, SolutionCache, DeadlineManager, ReconciliationSweeper,
            FailoverManager, FederationFailover, RegionalNode, Forwarder,
            FlowTable, DataPlane,
        ]
        for cls in classes:
            assert "metrics" not in inspect.signature(cls).parameters, cls
        assert "owner" not in inspect.signature(FlowTable).parameters
