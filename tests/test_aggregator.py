"""Tests for the message aggregator."""

from repro.bus import Topic, make_bus
from repro.bus.aggregator import MessageAggregator

SITES = ["S0", "S1"]
TOPIC = Topic("c1", "e1", "G", "S0", "instances")


def make_aggregating_bus():
    bus = make_bus(SITES, wan_delay_s=0.02, uplink_bps=100e6)
    bus.attach("lsb", "S0")
    bus.attach("sub", "S1")
    bus.subscribe("sub", TOPIC)
    return bus, MessageAggregator(bus, "lsb")


class TestMessageAggregator:
    def test_items_within_window_become_one_publication(self):
        bus, agg = make_aggregating_bus()
        for i in range(8):
            bus.network.sim.schedule(i * 0.005, agg.collect, TOPIC, f"u{i}")
        bus.network.run()
        assert bus.stats.published == 1
        assert bus.stats.wan_messages == 1
        payload = bus.clients["sub"].received[0][2]
        assert payload["batch"] == [f"u{i}" for i in range(8)]

    def test_items_across_windows_batch_separately(self):
        bus, agg = make_aggregating_bus()
        bus.network.sim.schedule(0.0, agg.collect, TOPIC, "a")
        bus.network.sim.schedule(0.2, agg.collect, TOPIC, "b")
        bus.network.run()
        assert bus.stats.published == 2
        assert agg.stats.compression == 1.0

    def test_compression_statistic(self):
        bus, agg = make_aggregating_bus()
        for i in range(10):
            bus.network.sim.schedule(i * 0.005, agg.collect, TOPIC, i)
        bus.network.run()
        assert agg.stats.compression == 10.0

    def test_topics_batched_independently(self):
        other = Topic("c2", "e1", "H", "S0", "forwarders")
        bus, agg = make_aggregating_bus()
        bus.subscribe("sub", other)
        bus.network.sim.schedule(0.0, agg.collect, TOPIC, "x")
        bus.network.sim.schedule(0.0, agg.collect, other, "y")
        bus.network.run()
        assert bus.stats.published == 2

    def test_flush_all_publishes_immediately(self):
        bus, agg = make_aggregating_bus()
        agg.collect(TOPIC, "x")
        assert agg.pending_items(TOPIC) == 1
        agg.flush_all()
        bus.network.run()
        assert bus.stats.published == 1
        assert agg.pending_items(TOPIC) == 0

