"""Tests for the global message bus and its broadcast baseline."""

import pytest

from repro.bus import Topic, make_bus, make_full_mesh_bus
from repro.bus.bus import BusError
from repro.bus.topics import TopicError

SITES = ["S0", "S1", "S2"]
TOPIC = Topic(chain="c1", egress="e3", vnf="G", site="S0", kind="instances")


class TestTopics:
    def test_format_matches_paper_example(self):
        topic = Topic("c1", "e3", "G", "A", "instances")
        assert str(topic) == "/c1/e3/vnf_G/site_A_instances"

    def test_parse_round_trip(self):
        raw = "/c1/e3/vnf_O/site_B_forwarders"
        topic = Topic.parse(raw)
        assert topic.chain == "c1"
        assert topic.egress == "e3"
        assert topic.vnf == "O"
        assert topic.site == "B"
        assert topic.kind == "forwarders"
        assert str(topic) == raw

    def test_publisher_site_inferred_from_topic(self):
        assert Topic.parse("/c1/e3/vnf_G/site_B_instances").publisher_site == "B"

    def test_invalid_kind_rejected(self):
        with pytest.raises(TopicError):
            Topic("c1", "e3", "G", "A", "nonsense")

    def test_site_with_underscore_rejected(self):
        with pytest.raises(TopicError):
            Topic("c1", "e3", "G", "site_a", "instances")

    def test_malformed_strings_rejected(self):
        for raw in ("c1/e3", "/c1/e3/vnf_G", "/c1/e3/nfv_G/site_A_instances",
                    "/c1/e3/vnf_G/siteA_instances", "/a/b/vnf_/site__instances"):
            with pytest.raises(TopicError):
                Topic.parse(raw)


def build_proxy_bus(**kwargs):
    defaults = dict(
        sites=SITES, wan_delay_s=0.025, uplink_bps=80e6,
        uplink_buffer_bytes=1_000_000,
    )
    defaults.update(kwargs)
    return make_bus(**defaults)


class TestProxyBus:
    def test_local_subscriber_gets_message_fast(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S0")
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, {"x": 1})
        bus.network.run()
        assert len(bus.clients["sub"].received) == 1
        assert bus.stats.deliveries[0].latency < 0.005  # LAN only

    def test_remote_subscriber_gets_one_wan_copy(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        for j in range(4):
            bus.attach(f"sub{j}", "S1")
            bus.subscribe(f"sub{j}", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        # One WAN message despite four subscribers at S1.
        assert bus.stats.wan_messages == 1
        assert bus.stats.delivered == 4

    def test_site_without_subscribers_gets_nothing(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        # No traffic toward S2's proxy.
        stats = bus.network.link_stats("wan.S0", "proxy.S2")
        assert stats.sent == 0

    def test_filter_installed_at_publisher_site(self):
        bus = build_proxy_bus()
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)  # topic's publisher site is S0
        assert str(TOPIC) in bus._site_filters["S0"]
        assert str(TOPIC) not in bus._site_filters["S1"]

    def test_unsubscribe_stops_delivery(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.unsubscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert bus.stats.delivered == 0

    def test_duplicate_subscribe_is_idempotent(self):
        # Regression: subscribing twice used to register the client
        # twice in the local fan-out list, double-delivering every
        # message.
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert len(bus.clients["sub"].received) == 1
        assert bus.stats.delivered == 1

    def test_unsubscribe_after_duplicate_subscribe_stops_delivery(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.subscribe("sub", TOPIC)
        bus.unsubscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert bus.stats.delivered == 0

    def test_last_unsubscribe_clears_publisher_site_filter(self):
        # The publisher's proxy must stop sending WAN copies toward a
        # site once its last subscriber leaves.
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub1", "S1")
        bus.attach("sub2", "S1")
        bus.subscribe("sub1", TOPIC)
        bus.subscribe("sub2", TOPIC)
        bus.unsubscribe("sub1", TOPIC)
        assert "S1" in bus._site_filters["S0"][str(TOPIC)]
        bus.unsubscribe("sub2", TOPIC)
        assert str(TOPIC) not in bus._site_filters["S0"]
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert bus.stats.wan_messages == 0

    def test_subscribe_round_trip_restores_delivery(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.unsubscribe("sub", TOPIC)
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert len(bus.clients["sub"].received) == 1

    def test_callback_invoked(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        seen = []
        bus.subscribe("sub", TOPIC, callback=lambda t, p: seen.append((t, p)))
        bus.publish("pub", TOPIC, 42)
        bus.network.run()
        assert seen == [(str(TOPIC), 42)]

    def test_wan_latency_reflects_delay(self):
        bus = build_proxy_bus(wan_delay_s=0.040)
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        latency = bus.stats.deliveries[0].latency
        assert 0.040 <= latency < 0.050

    def test_duplicate_client_rejected(self):
        bus = build_proxy_bus()
        bus.attach("pub", "S0")
        with pytest.raises(BusError):
            bus.attach("pub", "S0")

    def test_unknown_site_rejected(self):
        bus = build_proxy_bus()
        with pytest.raises(BusError):
            bus.attach("x", "nowhere")

    def test_multiple_topics_isolated(self):
        bus = build_proxy_bus()
        other = Topic("c2", "e1", "H", "S0", "forwarders")
        bus.attach("pub", "S0")
        bus.attach("sub_a", "S1")
        bus.attach("sub_b", "S1")
        bus.subscribe("sub_a", TOPIC)
        bus.subscribe("sub_b", other)
        bus.publish("pub", TOPIC, "m1")
        bus.publish("pub", other, "m2")
        bus.network.run()
        assert [p for _t, _top, p in bus.clients["sub_a"].received] == ["m1"]
        assert [p for _t, _top, p in bus.clients["sub_b"].received] == ["m2"]


class TestFullMeshComparison:
    def run_fanout(self, make, subscribers_per_site=4, publishes=100,
                   interval=0.005, uplink_bps=8e6, buffer_bytes=400_000):
        # At the default rate the proxy bus uses ~40% of the uplink while
        # full mesh needs ~160% -- the Figure 9 congestion regime.
        bus = make(
            SITES, wan_delay_s=0.025, uplink_bps=uplink_bps,
            uplink_buffer_bytes=buffer_bytes,
        )
        bus.attach("pub", "S0")
        for site in SITES[1:]:
            for j in range(subscribers_per_site):
                name = f"sub-{site}-{j}"
                bus.attach(name, site)
                bus.subscribe(name, TOPIC)
        for i in range(publishes):
            bus.network.sim.schedule(i * interval, bus.publish, "pub", TOPIC, i)
        bus.network.run()
        return bus.stats

    def test_mesh_sends_per_subscriber_copies(self):
        proxy = self.run_fanout(make_bus, publishes=10, uplink_bps=80e6)
        mesh = self.run_fanout(make_full_mesh_bus, publishes=10, uplink_bps=80e6)
        assert proxy.wan_messages == 10 * 2   # one per remote site
        assert mesh.wan_messages == 10 * 8    # one per remote subscriber

    def test_same_delivery_count_when_uncongested(self):
        proxy = self.run_fanout(make_bus, publishes=10, uplink_bps=80e6)
        mesh = self.run_fanout(make_full_mesh_bus, publishes=10, uplink_bps=80e6)
        assert proxy.delivered == mesh.delivered == 80

    def test_mesh_latency_order_of_magnitude_worse_under_load(self):
        # The Figure 9 conditions: publish rate near the uplink capacity.
        proxy = self.run_fanout(make_bus)
        mesh = self.run_fanout(make_full_mesh_bus)
        assert mesh.mean_latency() > 5 * proxy.mean_latency()

    def test_mesh_drops_messages_under_load(self):
        # Buffer sized below the mesh's peak backlog (~300 KB) but far
        # above the proxy bus's (which never queues more than a burst).
        proxy = self.run_fanout(make_bus, buffer_bytes=150_000)
        mesh = self.run_fanout(make_full_mesh_bus, buffer_bytes=150_000)
        assert proxy.wan_drops == 0
        assert mesh.wan_drops > 0
        assert proxy.delivered > mesh.delivered

    def test_mesh_duplicate_subscribe_and_unsubscribe(self):
        bus = make_full_mesh_bus(SITES, wan_delay_s=0.025, uplink_bps=8e6)
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        bus.subscribe("sub", TOPIC)
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert bus.stats.delivered == 1
        bus.unsubscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m2")
        bus.network.run()
        assert bus.stats.delivered == 1

    def test_mesh_routes_each_topic_to_its_own_callback(self):
        # One client, two live subscriptions: the second callback must
        # not replace the first (the proxy bus's per-topic callbacks).
        other = Topic("c2", "e1", "H", "S0", "forwarders")
        bus = make_full_mesh_bus(SITES, wan_delay_s=0.025, uplink_bps=8e6)
        bus.attach("pub", "S0")
        bus.attach("sub", "S1")
        seen = {TOPIC: [], other: []}
        for topic, log in seen.items():
            bus.subscribe("sub", topic, callback=lambda t, p, log=log: log.append(p))
        bus.publish("pub", TOPIC, "m1")
        bus.publish("pub", other, "m2")
        bus.network.run()
        assert seen == {TOPIC: ["m1"], other: ["m2"]}

    def test_mesh_delivers_everything_to_local_subscribers(self):
        bus = make_full_mesh_bus(SITES, wan_delay_s=0.025, uplink_bps=8e6)
        bus.attach("pub", "S0")
        bus.attach("sub", "S0")
        bus.subscribe("sub", TOPIC)
        bus.publish("pub", TOPIC, "m")
        bus.network.run()
        assert bus.stats.delivered == 1
        assert bus.stats.wan_messages == 0
