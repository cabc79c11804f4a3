"""Tests for edge classification, egress tables, instances, and controller."""

import ipaddress
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dataplane import DataPlane, Forwarder, LoadBalancingRule, WeightedChoice
from repro.dataplane.forwarder import ForwardingError
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.edge.classifier import (
    ClassifierError,
    ClassifierRule,
    EgressTable,
    Prefix,
    parse_address,
)
from repro.edge.controller import EdgeController
from repro.edge.instance import EdgeError, EdgeInstance

FLOW = FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 80)


def ip_in_prefix(ip: str, prefix: str) -> bool:
    return Prefix(prefix).contains(parse_address(ip))


class TestPrefixMatching:
    def test_ip_in_prefix(self):
        assert ip_in_prefix("10.0.0.5", "10.0.0.0/24")
        assert not ip_in_prefix("10.0.1.5", "10.0.0.0/24")
        assert ip_in_prefix("10.0.1.5", "10.0.0.0/16")

    def test_host_prefix(self):
        assert ip_in_prefix("10.0.0.5", "10.0.0.5/32")


def prefix_texts():
    """Prefix text, well-formed and not: dotted quads with every kind of
    length, IPv6, and the ways a hand-written prefix goes wrong."""
    good = st.integers(0, 255).map(str)
    octet = st.one_of(
        good,
        st.sampled_from(["256", "01", "007", "", " 1", "1 ", "-1", "0x1", "\u0661", "1\x00"]),
    )
    quad = st.one_of(
        st.tuples(good, good, good, good), st.lists(octet, min_size=3, max_size=5)
    ).map(".".join)
    length = st.one_of(
        st.integers(0, 40).map(str),
        st.sampled_from([
            "", "08", "032", "033", " 24", "24 ", "+8", "-1", "2_4", "\u0662\u0664",
            "255.255.255.0", "0.0.0.255", "255.0.255.0", "24/8",
        ]),
    )
    v4 = st.one_of(quad, st.builds("{}/{}".format, quad, length))
    v6 = st.builds(
        "{}/{}".format,
        st.sampled_from(["::", "::1", "2001:db8::", "2001:db8::1", "fe80::1%eth0", "1::2::3"]),
        st.one_of(st.integers(0, 130).map(str), st.just("ffff::")),
    )
    return st.one_of(v4, v6, st.text(max_size=12))


def fast(text):
    prefix = Prefix(text)
    return prefix.version, prefix.shift, prefix.bits


def reference(text):
    network = ipaddress.ip_network(text, strict=False)
    shift = network.max_prefixlen - network.prefixlen
    return network.version, shift, int(network.network_address) >> shift


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # whatever it is, both sides must raise it
        return type(exc)


class TestPrefixParsing:
    """``Prefix`` reads a plain ``a.b.c.d/n`` itself; the language it
    accepts, what it makes of it and every refusal stay ``ipaddress``'s."""

    @settings(max_examples=600, deadline=None)
    @given(prefix_texts())
    @example("10.0.0.0/24")
    @example("10.0.0.77/24")  # host bits set
    @example("0.0.0.0/0")
    @example("10.1.2.3/32")
    @example("10.1.2.3/33")
    @example("10.1.2.3")
    @example("10.0.0.0/255.255.255.0")
    @example("010.0.0.0/24")
    @example("10.0.0.0/024")
    @example(" 10.0.0.0/24")
    @example("10.0.0.0/24\n")
    @example("")
    @example("/")
    @example("10.0.0.0/\u0662\u0664")
    @example("2001:db8::/32")
    @example("::/0")
    def test_same_prefix_or_same_refusal_as_ipaddress(self, text):
        assert outcome(fast, text) == outcome(reference, text)

    @pytest.mark.parametrize("value", [167772160, b"\n\x00\x00\x00", ("10.0.0.0", 8), None])
    def test_what_is_not_text_is_left_to_ipaddress(self, value):
        assert outcome(fast, value) == outcome(reference, value)


class TestClassifierRule:
    def test_wildcard_rule_matches_everything(self):
        assert ClassifierRule(chain_label=1).matches(FLOW)

    def test_src_prefix_filter(self):
        rule = ClassifierRule(1, src_prefix="10.0.0.0/24")
        assert rule.matches(FLOW)
        assert not rule.matches(
            FiveTuple("11.0.0.5", "20.0.0.9", "tcp", 1234, 80)
        )

    def test_protocol_filter(self):
        rule = ClassifierRule(1, protocol="udp")
        assert not rule.matches(FLOW)

    def test_port_range_filter(self):
        rule = ClassifierRule(1, dst_port_range=(80, 443))
        assert rule.matches(FLOW)
        assert not rule.matches(
            FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 8080)
        )

    def test_invalid_port_range_rejected(self):
        with pytest.raises(ClassifierError):
            ClassifierRule(1, dst_port_range=(443, 80))

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            ClassifierRule(1, src_prefix="not-an-ip/8")


class TestEgressTable:
    def test_longest_prefix_wins(self):
        table = EgressTable()
        table.add_route("20.0.0.0/8", "far")
        table.add_route("20.0.0.0/24", "near")
        assert table.lookup("20.0.0.9") == "near"
        assert table.lookup("20.5.0.9") == "far"

    def test_no_match_returns_none(self):
        assert EgressTable().lookup("1.2.3.4") is None

    def test_remove_route(self):
        table = EgressTable()
        table.add_route("20.0.0.0/24", "x")
        assert table.remove_route("20.0.0.0/24")
        assert not table.remove_route("20.0.0.0/24")
        assert table.lookup("20.0.0.9") is None


def make_edge_fabric():
    dp = DataPlane(random.Random(4))
    f_a = dp.add_forwarder(Forwarder("fA", "A"))
    dp.add_forwarder(Forwarder("fC", "C"))
    ingress = EdgeInstance("edgeA", "A", dp)
    egress = EdgeInstance("edgeC", "C", dp)
    ingress.attach_forwarder("fA")
    egress.attach_forwarder("fC")
    f_a.install_rule(
        1, "C", LoadBalancingRule(next_forwarders=WeightedChoice({"edgeC": 1.0}))
    )
    return dp, ingress, egress


class TestEdgeInstance:
    def test_labels_applied_from_classifier_and_egress_table(self):
        _dp, ingress, egress = make_edge_fabric()
        ingress.install_classifier(ClassifierRule(1, src_prefix="10.0.0.0/24"))
        ingress.egress_table.add_route("20.0.0.0/24", "C")
        ingress.ingress(Packet(FLOW))
        assert len(egress.delivered) == 1
        delivered = egress.delivered[0]
        assert delivered.labels is None  # stripped at the egress

    def test_unclassified_traffic_not_forwarded(self):
        _dp, ingress, egress = make_edge_fabric()
        ingress.egress_table.add_route("20.0.0.0/24", "C")
        ingress.ingress(Packet(FLOW))  # no classifier installed
        assert not egress.delivered
        assert len(ingress.unclassified) == 1

    def test_no_egress_route_means_unclassified(self):
        _dp, ingress, egress = make_edge_fabric()
        ingress.install_classifier(ClassifierRule(1))
        ingress.ingress(Packet(FLOW))
        assert not egress.delivered
        assert ingress.unclassified

    def test_reverse_uses_remembered_forwarder(self):
        _dp, ingress, egress = make_edge_fabric()
        ingress.install_classifier(ClassifierRule(1, src_prefix="10.0.0.0/24"))
        ingress.egress_table.add_route("20.0.0.0/24", "C")
        ingress.ingress(Packet(FLOW))
        rev = Packet(FLOW.reversed())
        egress.send_reverse(rev)
        assert rev.trace[-1] == "edgeA"

    def test_reverse_without_state_raises(self):
        _dp, _ingress, egress = make_edge_fabric()
        with pytest.raises(ForwardingError):
            egress.send_reverse(Packet(FLOW.reversed()))

    def test_ingress_without_forwarder_raises(self):
        dp = DataPlane(random.Random(0))
        lonely = EdgeInstance("lonely", "A", dp)
        with pytest.raises(EdgeError):
            lonely.ingress(Packet(FLOW))

    def test_attach_requires_same_site(self):
        dp = DataPlane(random.Random(0))
        dp.add_forwarder(Forwarder("fB", "B"))
        edge = EdgeInstance("edgeA", "A", dp)
        with pytest.raises(EdgeError):
            edge.attach_forwarder("fB")

    def test_remove_classifier_by_label(self):
        _dp, ingress, _egress = make_edge_fabric()
        ingress.install_classifier(ClassifierRule(1))
        ingress.install_classifier(ClassifierRule(2))
        ingress.remove_classifier(1)
        assert [r.chain_label for r in ingress.classifier] == [2]

    def test_first_match_wins(self):
        _dp, ingress, _egress = make_edge_fabric()
        ingress.install_classifier(ClassifierRule(5, src_prefix="10.0.0.0/24"))
        ingress.install_classifier(ClassifierRule(6))
        assert ingress.classify(FLOW) == 5


class TestEdgeController:
    def test_resolve_site_from_attachment(self):
        ctrl = EdgeController("vpn")
        ctrl.register_attachment("office-1", "A")
        assert ctrl.resolve_site("office-1") == "A"

    def test_unknown_attachment_raises(self):
        with pytest.raises(EdgeError):
            EdgeController("vpn").resolve_site("ghost")

    def test_install_chain_configures_all_site_instances(self):
        dp = DataPlane(random.Random(0))
        ctrl = EdgeController("vpn")
        e1 = EdgeInstance("e1", "A", dp)
        e2 = EdgeInstance("e2", "A", dp)
        ctrl.register_instance(e1)
        ctrl.register_instance(e2)
        rule = ClassifierRule(7)
        ctrl.install_chain("A", Labels(7, "C"), rule, [("20.0.0.0/24", "C")])
        for instance in (e1, e2):
            assert instance.classify(FLOW) == 7
            assert instance.egress_table.lookup("20.0.0.9") == "C"

    def test_install_chain_at_empty_site_raises(self):
        with pytest.raises(EdgeError):
            EdgeController("vpn").install_chain("A", Labels(1, "C"), None)

    def test_remove_chain_clears_classifiers(self):
        dp = DataPlane(random.Random(0))
        ctrl = EdgeController("vpn")
        e1 = EdgeInstance("e1", "A", dp)
        ctrl.register_instance(e1)
        ctrl.install_chain("A", Labels(7, "C"), ClassifierRule(7))
        ctrl.remove_chain(Labels(7, "C"))
        assert e1.classify(FLOW) is None

    def test_sites_lists_registered_locations(self):
        dp = DataPlane(random.Random(0))
        ctrl = EdgeController("vpn")
        ctrl.register_instance(EdgeInstance("e1", "B", dp))
        ctrl.register_instance(EdgeInstance("e2", "A", dp))
        assert ctrl.sites == ["A", "B"]

    def test_remove_chain_removes_its_egress_routes(self):
        dp = DataPlane(random.Random(0))
        ctrl = EdgeController("vpn")
        e1 = EdgeInstance("e1", "A", dp)
        ctrl.register_instance(e1)
        for label in range(1, 6):
            labels = Labels(label, "LAX")
            prefix = f"20.0.{label}.0/24"
            ctrl.install_chain("A", labels, ClassifierRule(label), [(prefix, "LAX")])
            assert e1.egress_table.lookup(f"20.0.{label}.7") == "LAX"
            ctrl.remove_chain(labels)
        assert len(e1.egress_table) == 0
        assert e1.egress_table.lookup("20.0.3.7") is None

    def test_shared_route_survives_until_last_chain_leaves(self):
        dp = DataPlane(random.Random(0))
        ctrl = EdgeController("vpn")
        e1 = EdgeInstance("e1", "A", dp)
        ctrl.register_instance(e1)
        route = [("20.0.0.0/24", "C")]
        ctrl.install_chain("A", Labels(1, "C"), ClassifierRule(1), route)
        ctrl.install_chain("A", Labels(2, "C"), ClassifierRule(2), route)
        ctrl.remove_chain(Labels(1, "C"))
        assert e1.egress_table.lookup("20.0.0.9") == "C"
        ctrl.remove_chain(Labels(2, "C"))
        assert e1.egress_table.lookup("20.0.0.9") is None
        assert len(e1.egress_table) == 0

    def test_global_remove_chain_leaves_no_route_at_any_edge_site(self):
        from tests.test_controller import build_deployment, spec

        gs, dp, _svc, edge, ingress, _egress = build_deployment()
        grafted = EdgeInstance("edge.B", "B", dp)
        edge.register_instance(grafted)
        for _ in range(3):
            gs.create_chain(spec())
            gs.add_edge_site("corp", "B")
            assert ingress.egress_table.lookup("20.0.0.9") == "C"
            assert grafted.egress_table.lookup("20.0.0.9") == "C"
            gs.remove_chain("corp")
        for instance in (ingress, grafted):
            assert len(instance.egress_table) == 0
            assert list(instance.classifier) == []
