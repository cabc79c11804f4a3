"""Safety-property tests for the forwarding data plane (Section 5.3).

Conformity, flow affinity, and symmetric return -- including under rule
updates, weight changes, and header-rewriting VNFs.
"""

import random

import pytest

from repro.dataplane.forwarder import (
    DataPlane,
    DropPacket,
    Forwarder,
    ForwardingError,
    VnfInstance,
)
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.dataplane.rules import LoadBalancingRule, WeightedChoice
from repro.vnf.nat import NatFunction


class Sink:
    """A minimal chain endpoint standing in for an egress edge."""

    def __init__(self, name: str):
        self.name = name
        self.received: list[Packet] = []

    def receive_from_chain(self, packet: Packet, came_from: str) -> None:
        packet.record(self.name)
        self.received.append(packet)


def flow(i: int) -> FiveTuple:
    return FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1000 + i, 80)


@pytest.fixture
def fabric():
    """Two-stage chain: ingress fwd -> G instances (2, site B) -> sink.

    Returns (dataplane, ingress forwarder, vnf forwarder, instances, sink).
    """
    dp = DataPlane(random.Random(7))
    f_in = dp.add_forwarder(Forwarder("f.in", "A"))
    f_g = dp.add_forwarder(Forwarder("f.g", "B"))
    g1 = VnfInstance("g1", "G", "B")
    g2 = VnfInstance("g2", "G", "B")
    f_g.attach(g1)
    f_g.attach(g2)
    sink = Sink("egress")
    dp.add_endpoint(sink)
    dp.add_endpoint(Sink("ingress-edge"))  # reverse packets terminate here
    f_in.install_rule(
        1, "E", LoadBalancingRule(next_forwarders=WeightedChoice({"f.g": 1.0}))
    )
    f_g.install_rule(
        1,
        "E",
        LoadBalancingRule(
            local_instances=WeightedChoice({"g1": 1.0, "g2": 1.0}),
            next_forwarders=WeightedChoice({"egress": 1.0}),
        ),
    )
    return dp, f_in, f_g, (g1, g2), sink


def send(dp, i, direction="forward", labels=None):
    packet = Packet(flow(i), labels=labels if labels is not None else Labels(1, "E"))
    if direction == "forward":
        return dp.send_forward(packet, "f.in", "ingress-edge")
    packet.flow = packet.flow.reversed()
    return dp.send_reverse(packet, "f.g", "egress")


class TestConformity:
    def test_packet_visits_chain_elements_in_order(self, fabric):
        dp, _f_in, _f_g, _gs, sink = fabric
        packet = send(dp, 0)
        assert packet.trace[0] == "f.in"
        assert packet.trace[1] == "f.g"
        assert packet.trace[2] in ("g1", "g2")
        assert packet.trace[3] == "egress"
        assert sink.received == [packet]

    def test_unlabelled_packet_dropped(self, fabric):
        dp, *_ = fabric
        packet = Packet(flow(0), labels=None)
        dp.send_forward(packet, "f.in", "edge")
        assert dp.drops and dp.drops[0][1] == "f.in"

    def test_unknown_chain_label_dropped(self, fabric):
        dp, f_in, *_ = fabric
        packet = Packet(flow(0), labels=Labels(99, "E"))
        dp.send_forward(packet, "f.in", "edge")
        assert dp.drops
        assert f_in.packets_dropped == 1

    def test_loops_detected_by_hop_limit(self):
        dp = DataPlane(random.Random(0))
        f1 = dp.add_forwarder(Forwarder("f1", "A"))
        f2 = dp.add_forwarder(Forwarder("f2", "A"))
        f1.install_rule(
            1, "E", LoadBalancingRule(next_forwarders=WeightedChoice({"f2": 1}))
        )
        f2.install_rule(
            1, "E", LoadBalancingRule(next_forwarders=WeightedChoice({"f1": 1}))
        )
        with pytest.raises(ForwardingError, match="hops"):
            dp.send_forward(Packet(flow(0), labels=Labels(1, "E")), "f1", "e")

    def test_failed_local_pick_leaves_no_flow_entry(self, fabric):
        """A set-up dropped because every local weight is zero leaves no
        half-built entry behind: with the weight restored the flow's next
        packet is a first packet again and visits the VNF, both ways."""
        dp, _f_in, f_g, _gs, sink = fabric
        rule = LoadBalancingRule(
            local_instances=WeightedChoice({"g1": 0.0}),
            next_forwarders=WeightedChoice({"egress": 1.0}),
        )
        f_g.install_rule(1, "E", rule)
        dropped = send(dp, 0)
        assert dropped.trace == ["f.in", "f.g"]
        assert [name for _packet, name in dp.drops] == ["f.g"]
        assert (len(f_g.flow_table), f_g.flow_table.inserts) == (0, 0)
        rule.local_instances.set_weight("g1", 1.0)
        delivered = send(dp, 0)
        assert delivered.trace == ["f.in", "f.g", "g1", "egress"]
        assert sink.received == [delivered]
        reply = send(dp, 0, direction="reverse")
        assert reply.trace == ["f.g", "g1", "f.in", "ingress-edge"]

    def test_packet_dropped_by_the_vnf_keeps_its_entry(self, fabric):
        """The VNF's own verdict is not a failed set-up: the entry and
        its instance affinity stay (a firewall sees the flow's retry)."""
        dp, _f_in, f_g, (g1, g2), sink = fabric
        verdicts = iter([DropPacket("first packet refused")])

        def transform(packet):
            for verdict in verdicts:
                raise verdict

        g1.transform = g2.transform = transform
        dropped = send(dp, 0)
        assert dropped.trace[:2] == ["f.in", "f.g"] and len(dropped.trace) == 3
        assert (len(f_g.flow_table), f_g.flow_table.inserts) == (1, 1)
        retried = send(dp, 0)
        assert retried.trace == dropped.trace + ["egress"]
        assert sink.received == [retried] and f_g.flow_table.inserts == 1


class TestFlowAffinity:
    def test_same_flow_same_instance(self, fabric):
        dp, *_ = fabric
        first = send(dp, 0)
        chosen = [e for e in first.trace if e.startswith("g")]
        for _ in range(20):
            again = send(dp, 0)
            assert [e for e in again.trace if e.startswith("g")] == chosen

    def test_distinct_flows_spread_over_instances(self, fabric):
        dp, *_ = fabric
        instances = set()
        for i in range(50):
            packet = send(dp, i)
            instances.update(e for e in packet.trace if e.startswith("g"))
        assert instances == {"g1", "g2"}

    def test_affinity_survives_weight_change(self, fabric):
        dp, _f_in, f_g, _gs, _sink = fabric
        pinned = {}
        for i in range(10):
            packet = send(dp, i)
            pinned[i] = [e for e in packet.trace if e.startswith("g")][0]
        # Shift all weight to g1: existing flows must keep their instance.
        f_g.install_rule(
            1,
            "E",
            LoadBalancingRule(
                local_instances=WeightedChoice({"g1": 1.0, "g2": 0.0}),
                next_forwarders=WeightedChoice({"egress": 1.0}),
            ),
        )
        for i in range(10):
            packet = send(dp, i)
            assert [e for e in packet.trace if e.startswith("g")][0] == pinned[i]

    def test_new_flows_follow_new_weights(self, fabric):
        dp, _f_in, f_g, _gs, _sink = fabric
        f_g.install_rule(
            1,
            "E",
            LoadBalancingRule(
                local_instances=WeightedChoice({"g1": 1.0, "g2": 0.0}),
                next_forwarders=WeightedChoice({"egress": 1.0}),
            ),
        )
        for i in range(100, 120):
            packet = send(dp, i)
            assert "g1" in packet.trace and "g2" not in packet.trace

    def test_load_balancing_matches_weights(self, fabric):
        dp, _f_in, f_g, _gs, _sink = fabric
        f_g.install_rule(
            1,
            "E",
            LoadBalancingRule(
                local_instances=WeightedChoice({"g1": 3.0, "g2": 1.0}),
                next_forwarders=WeightedChoice({"egress": 1.0}),
            ),
        )
        visits = [send(dp, i).trace[2] for i in range(400)]
        assert set(visits) == {"g1", "g2"}
        assert 0.68 <= visits.count("g1") / len(visits) <= 0.82


class TestSymmetricReturn:
    def test_reverse_uses_same_instance(self, fabric):
        dp, *_ = fabric
        fwd = send(dp, 0)
        chosen = [e for e in fwd.trace if e.startswith("g")]
        rev = send(dp, 0, direction="reverse")
        assert [e for e in rev.trace if e.startswith("g")] == chosen

    def test_reverse_retraces_forwarders_backwards(self, fabric):
        dp, *_ = fabric
        send(dp, 0)
        rev = send(dp, 0, direction="reverse")
        fwd_hops = [h for h in rev.trace if h.startswith("f.")]
        assert fwd_hops == ["f.g", "f.in"]

    def test_reverse_without_forward_state_dropped(self, fabric):
        dp, *_ = fabric
        rev = send(dp, 77, direction="reverse")
        assert dp.drops
        assert rev.trace[-1] == "f.g"

    def test_symmetric_return_for_many_flows(self, fabric):
        dp, *_ = fabric
        forward_instance = {}
        for i in range(30):
            packet = send(dp, i)
            forward_instance[i] = [e for e in packet.trace if e.startswith("g")]
        for i in range(30):
            rev = send(dp, i, direction="reverse")
            assert [e for e in rev.trace if e.startswith("g")] == (
                forward_instance[i]
            )


class TestLabelHandling:
    def test_label_unaware_vnf_never_sees_labels(self):
        dp = DataPlane(random.Random(1))
        f = dp.add_forwarder(Forwarder("f1", "A"))
        seen = []
        vnf = VnfInstance(
            "v1", "V", "A", supports_labels=False,
            transform=lambda packet: seen.append(packet.labels),
        )
        f.attach(vnf)
        sink = Sink("out")
        dp.add_endpoint(sink)
        f.install_rule(
            1,
            "E",
            LoadBalancingRule(
                local_instances=WeightedChoice({"v1": 1.0}),
                next_forwarders=WeightedChoice({"out": 1.0}),
            ),
        )
        packet = Packet(flow(0), labels=Labels(1, "E"))
        dp.send_forward(packet, "f1", "edge")
        assert seen == [None]
        assert packet.labels == Labels(1, "E")  # re-affixed downstream

    def test_label_aware_vnf_sees_labels(self, fabric):
        dp, _f_in, _f_g, instances, _sink = fabric
        seen = []
        for instance in instances:
            instance.transform = lambda packet: seen.append(packet.labels)
        send(dp, 0)
        assert seen == [Labels(1, "E")]


class TestHeaderRewritingVnf:
    def make_nat_fabric(self):
        dp = DataPlane(random.Random(5))
        f_in = dp.add_forwarder(Forwarder("f.in", "A"))
        f_nat = dp.add_forwarder(Forwarder("f.nat", "B"))
        nat = NatFunction("99.9.9.9")
        inst = VnfInstance("nat1", "NAT", "B", transform=nat)
        f_nat.attach(inst)
        sink = Sink("out")
        dp.add_endpoint(sink)
        dp.add_endpoint(Sink("edge"))  # reverse packets terminate here
        f_in.install_rule(
            1, "E",
            LoadBalancingRule(next_forwarders=WeightedChoice({"f.nat": 1.0})),
        )
        f_nat.install_rule(
            1, "E",
            LoadBalancingRule(
                local_instances=WeightedChoice({"nat1": 1.0}),
                next_forwarders=WeightedChoice({"out": 1.0}),
            ),
        )
        return dp, sink

    def test_forward_rewrite_reaches_sink_translated(self):
        dp, sink = self.make_nat_fabric()
        packet = Packet(flow(0), labels=Labels(1, "E"))
        dp.send_forward(packet, "f.in", "edge")
        assert sink.received[0].flow.src_ip == "99.9.9.9"

    def test_reverse_of_rewritten_flow_is_untranslated(self):
        dp, sink = self.make_nat_fabric()
        packet = Packet(flow(0), labels=Labels(1, "E"))
        dp.send_forward(packet, "f.in", "edge")
        public = sink.received[0].flow
        rev = Packet(public.reversed(), labels=Labels(1, "E"))
        out = dp.send_reverse(rev, "f.nat", "out")
        assert out.flow.dst_ip == "10.0.0.1"
        assert out.flow.dst_port == 1000

    def test_second_packet_of_rewritten_flow_keeps_mapping(self):
        dp, sink = self.make_nat_fabric()
        for _ in range(3):
            packet = Packet(flow(0), labels=Labels(1, "E"))
            dp.send_forward(packet, "f.in", "edge")
        ports = {p.flow.src_port for p in sink.received}
        assert len(ports) == 1  # stable NAT binding


class TestForwarderManagement:
    def test_attach_rejects_wrong_site(self):
        f = Forwarder("f1", "A")
        with pytest.raises(ForwardingError):
            f.attach(VnfInstance("v1", "V", "B"))

    def test_detached_instance_causes_drop(self, fabric):
        dp, _f_in, f_g, _gs, _sink = fabric
        send(dp, 0)
        f_g.attached.pop("g1", None)
        f_g.attached.pop("g2", None)
        send(dp, 0)  # flow entry still points at the detached instance
        assert dp.drops

    def test_duplicate_forwarder_rejected(self, fabric):
        dp, *_ = fabric
        with pytest.raises(ForwardingError):
            dp.add_forwarder(Forwarder("f.in", "A"))

