"""The edge's compiled match state against its definition.

``EdgeInstance.classify`` and ``EgressTable.lookup`` answer from
structures built when a rule or route is installed.  Their definition is
the linear scan kept here as the reference: first installed classifier
rule that matches, longest destination prefix (first added among equals).
The guards at the bottom pin down what "fast path" means without timing
anything: no network is parsed per packet, the rules evaluated per packet
do not grow with the rules installed, and the key types stay tuples.
"""

import ipaddress
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import ChainSpecification, GlobalSwitchboard, LocalSwitchboard
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane, Forwarder
from repro.dataplane.flowtable import FlowKey, FlowTable
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.edge import ClassifierRule, EdgeController, EdgeInstance, EgressTable
from repro.edge import instance as edge_instance
from repro.vnf import NatFunction, StatefulFirewall, VnfService
from repro.vnf.firewall import FirewallRule

# -- the reference: 15 lines of ipaddress --------------------------------


def _inside(ip, prefix):
    return prefix is None or (
        ipaddress.ip_address(ip) in ipaddress.ip_network(prefix, strict=False)
    )


def _within(port, ports):
    return ports is None or ports[0] <= port <= ports[1]


def reference_matches(rule, flow):
    return (
        _inside(flow.src_ip, rule.src_prefix)
        and _inside(flow.dst_ip, rule.dst_prefix)
        and rule.protocol in (None, flow.protocol)
        and _within(flow.src_port, rule.src_port_range)
        and _within(flow.dst_port, rule.dst_port_range)
    )


def reference_classify(rules, flow):
    """``rules`` in install order; the first match wins."""
    return next((r.chain_label for r in rules if reference_matches(r, flow)), None)


def reference_lookup(routes, ip):
    """``routes`` as (prefix, site) in the order added; longest prefix
    wins, the first added among equal prefixes."""
    inside = [(p, s) for p, s in routes if _inside(ip, p)]
    longest = max(
        (ipaddress.ip_network(p, strict=False).prefixlen for p, _ in inside),
        default=None,
    )
    return next(
        (s for p, s in inside
         if ipaddress.ip_network(p, strict=False).prefixlen == longest),
        None,
    )


# -- strategies: few networks, many lengths, so prefixes overlap ---------

V4_BASES = ["10.0.0.0", "10.0.1.0", "10.1.0.0"]
V6_BASES = ["2001:db8::", "2001:db8:1::"]
HOSTS = [0, 1, 77, 256]

v4_prefix = st.builds(
    lambda base, length: f"{base}/{length}",
    st.sampled_from(V4_BASES), st.sampled_from([0, 8, 15, 16, 23, 24, 30, 32]),
)
v6_prefix = st.builds(
    lambda base, length: f"{base}/{length}",
    st.sampled_from(V6_BASES), st.sampled_from([0, 32, 48, 64, 127, 128]),
)
prefix = st.one_of(v4_prefix, v6_prefix)
v4_address = st.builds(
    lambda base, host: str(ipaddress.ip_address(base) + host),
    st.sampled_from(V4_BASES + ["11.0.0.0"]), st.sampled_from(HOSTS),
)
v6_address = st.builds(
    lambda base, host: str(ipaddress.ip_address(base) + host),
    st.sampled_from(V6_BASES + ["fe80::"]), st.sampled_from(HOSTS),
)
address = st.one_of(v4_address, v6_address)
ports = st.sampled_from([22, 80, 443])
port_range = st.sampled_from([None, None, None, (0, 65535), (80, 80), (80, 443)])
flows = st.builds(
    FiveTuple, address, address, st.sampled_from(["tcp", "udp"]), ports, ports
)
rules = st.builds(
    ClassifierRule,
    chain_label=st.integers(1, 6),
    src_prefix=st.one_of(st.none(), prefix),
    dst_prefix=st.one_of(st.none(), st.none(), st.none(), prefix),
    protocol=st.sampled_from([None, None, None, "tcp", "udp"]),
    src_port_range=port_range,
    dst_port_range=port_range,
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("install"), rules),
        st.tuples(st.just("remove"), st.integers(1, 6)),
        st.tuples(st.just("add_route"), prefix, st.sampled_from("ABC")),
        st.tuples(st.just("remove_route"), prefix, st.sampled_from([None, *"ABC"])),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(steps, st.lists(flows, min_size=1, max_size=8))
def test_compiled_state_agrees_with_the_linear_reference(steps, probes):
    edge = EdgeInstance("edge", "A", DataPlane(random.Random(0)))
    installed: list[ClassifierRule] = []
    routes: list[tuple[str, str]] = []
    for step in steps:
        if step[0] == "install":
            edge.install_classifier(step[1])
            installed.append(step[1])
        elif step[0] == "remove":
            edge.remove_classifier(step[1])
            installed = [r for r in installed if r.chain_label != step[1]]
        elif step[0] == "add_route":
            edge.egress_table.add_route(step[1], step[2])
            routes.append(step[1:])
        else:
            network = ipaddress.ip_network(step[1], strict=False)
            same = [
                i for i, (p, s) in enumerate(routes)
                if ipaddress.ip_network(p, strict=False) == network
                and step[2] in (None, s)
            ]
            doomed = same if step[2] is None else same[:1]
            assert edge.egress_table.remove_route(step[1], step[2]) == bool(doomed)
            routes = [r for i, r in enumerate(routes) if i not in doomed]
        assert list(edge.classifier) == installed
        assert len(edge.egress_table) == len(routes)
        for flow in probes:
            assert edge.classify(flow) == reference_classify(installed, flow)
            assert edge.egress_table.lookup(flow.dst_ip) == reference_lookup(
                routes, flow.dst_ip
            )


# -- the connection table: a memo of (flow, classifier, egress table) ----


def _without_route(routes, prefix, site):
    """``routes`` less what ``remove_route(prefix, site)`` removes: the
    first route to ``site`` under ``prefix``, every one when None."""
    network = ipaddress.ip_network(prefix, strict=False)
    same = [
        i for i, (p, s) in enumerate(routes)
        if ipaddress.ip_network(p, strict=False) == network and site in (None, s)
    ]
    doomed = same if site is None else same[:1]
    return [r for i, r in enumerate(routes) if i not in doomed]


# Addresses and prefixes that mostly nest, so that most flows are
# labelled and most edits move some flow's answer.
near_prefix = st.one_of(prefix, st.sampled_from([
    "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.0.0.1/32",
    "::/0", "2001:db8::/32", "2001:db8::/64", "2001:db8::1/128",
]))
near_address = st.one_of(address, st.sampled_from([
    "10.0.0.1", "10.0.0.77", "10.0.1.1", "10.1.0.1",
    "2001:db8::1", "2001:db8::4d", "2001:db8:1::1",
]))
near_flows = st.builds(
    FiveTuple, near_address, near_address, st.sampled_from(["tcp", "tcp", "udp"]),
    st.sampled_from([80, 443]), st.just(80),
)


def _rules_of(label):
    return st.builds(
        ClassifierRule,
        chain_label=label,
        src_prefix=st.one_of(st.none(), near_prefix),
        dst_prefix=st.one_of(st.none(), st.none(), st.none(), near_prefix),
        protocol=st.sampled_from([None, None, None, "tcp", "udp"]),
        src_port_range=port_range,
    )


route = st.tuples(near_prefix, st.sampled_from("ABC"))
connection_steps = st.lists(
    st.one_of(
        # label 7 is never installed: removing it must change nothing
        st.integers(1, 6).flatmap(
            lambda label: st.tuples(
                st.just("install_chain"), st.just(label),
                st.one_of(st.none(), _rules_of(st.just(label))),
                st.lists(route, max_size=2),
            )
        ),
        st.tuples(st.just("remove_chain"), st.integers(1, 7)),
        st.tuples(st.just("install"), _rules_of(st.integers(1, 6))),
        st.tuples(st.just("remove"), st.integers(1, 7)),
        route.map(lambda added: ("add_route", *added)),
        st.tuples(st.just("remove_route"), near_prefix, st.sampled_from([None, *"ABC"])),
        st.tuples(st.just("packet"), near_flows),
    ),
    min_size=4, max_size=30,
)
#: Every example starts with both address families labelled.
PRELUDE = [
    ("install_chain", 1, ClassifierRule(1, src_prefix="10.0.0.0/8"), [("10.0.0.0/8", "A")]),
    ("install_chain", 2, ClassifierRule(2, protocol="tcp"), [("::/0", "B")]),
]


@settings(max_examples=150, deadline=None)
@given(connection_steps, st.lists(near_flows, min_size=1, max_size=4), st.sampled_from([2, 8192]))
def test_ingress_labels_every_packet_as_the_uncached_reference_does(steps, known, bound):
    """Whatever edits the two tables -- the controller, the instance's
    own methods, or the tables directly -- and whether or not a flow was
    seen before, ``ingress`` applies the labels the linear scan computes
    now; a flow it cannot label is reported every time it is sent."""
    dp = DataPlane(random.Random(0))
    dp.add_forwarder(Forwarder("fwd", "A"))  # no rules: it drops, labels intact
    edge = EdgeInstance("edge", "A", dp)
    edge.attach_forwarder("fwd")
    controller = EdgeController("vpn")
    controller.register_instance(edge)
    installed: list[ClassifierRule] = []
    routes: list[tuple[str, str]] = []
    chain_routes: dict[int, list[tuple[str, str]]] = {}
    known = list(known)
    with mock.patch.object(edge_instance, "MAX_CONNECTIONS", bound):
        for step in PRELUDE + steps:
            if step[0] == "install_chain":
                _, label, rule, added = step
                controller.install_chain("A", Labels(label, "B"), rule, added)
                installed += [rule] if rule is not None else []
                routes += added
                chain_routes.setdefault(label, []).extend(added)
            elif step[0] == "remove_chain":
                controller.remove_chain(Labels(step[1], "B"))
                installed = [r for r in installed if r.chain_label != step[1]]
                for added in chain_routes.pop(step[1], []):
                    routes = _without_route(routes, *added)
            elif step[0] == "install":
                edge.classifier.install(step[1])
                installed.append(step[1])
            elif step[0] == "remove":
                edge.classifier.remove(step[1])
                installed = [r for r in installed if r.chain_label != step[1]]
            elif step[0] == "add_route":
                edge.egress_table.add_route(step[1], step[2])
                routes.append(step[1:])
            elif step[0] == "remove_route":
                edge.egress_table.remove_route(step[1], step[2])
                routes = _without_route(routes, step[1], step[2])
            else:
                known.append(step[1])
            for flow in known:
                chain = reference_classify(installed, flow)
                site = reference_lookup(routes, flow.dst_ip)
                packet, reported = Packet(flow), len(edge.unclassified)
                edge.ingress(packet)
                if chain is None or site is None:
                    assert packet.labels is None and packet.trace == ["edge"]
                    assert len(edge.unclassified) == reported + 1
                    assert edge.unclassified[-1] is packet
                else:
                    assert packet.labels == Labels(chain, site)
                    assert packet.trace == ["edge", "fwd"]
                    assert len(edge.unclassified) == reported


@given(address, prefix)
def test_rule_and_helper_agree_with_ipaddress(ip, prefix):
    from repro.edge.classifier import Prefix, parse_address

    assert Prefix(prefix).contains(parse_address(ip)) == _inside(ip, prefix)
    flow = FiveTuple(ip, ip, "tcp", 1, 2)
    assert ClassifierRule(1, dst_prefix=prefix).matches(flow) == _inside(ip, prefix)
    assert FirewallRule(src_prefix=prefix).matches(flow) == _inside(ip, prefix)


def test_malformed_text_is_a_value_error_and_scoped_ipv6_still_parses():
    table = EgressTable()
    table.add_route("fe80::/10", "A")
    assert table.lookup("fe80::1%eth0") == "A"
    for bad in ("10.0.0", "10.0.0.256", "01.2.3.4", "1.2.3.4/8", "", "::1::"):
        with pytest.raises(ValueError):
            table.lookup(bad)
    with pytest.raises(ValueError):
        table.add_route("10.0.0.0/33", "A")


# -- guard (a): nothing on the packet path parses a network --------------

SITES = ["A", "B", "C"]


def three_vnf_deployment():
    """Ingress at A, egress at C, chain firewall -> nat -> ids."""
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 8.0, ("a", "c"): 25.0, ("b", "c"): 12.0}
    capacity = {site: 80.0 for site in SITES}
    vnf_names = ["firewall", "nat", "ids"]
    model = NetworkModel(
        nodes, latency,
        [CloudSite(s, s.lower(), 400.0) for s in SITES],
        [VNF(name, 1.0, dict(capacity)) for name in vnf_names],
    )
    dp = DataPlane(random.Random(3))
    gs = GlobalSwitchboard(model, dp)
    for site in SITES:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    factories = {
        "firewall": lambda n, s: StatefulFirewall(
            [FirewallRule(src_prefix="10.0.0.0/16", dst_prefix="20.0.0.0/8")]
        ),
        "nat": lambda n, s: NatFunction("198.51.100.1"),
        "ids": None,
    }
    for name in vnf_names:
        gs.register_vnf_service(
            VnfService(name, 1.0, dict(capacity), instance_factory=factories[name])
        )
    edge = EdgeController("vpn")
    ingress, egress = EdgeInstance("edge.A", "A", dp), EdgeInstance("edge.C", "C", dp)
    for instance, attachment in ((ingress, "in"), (egress, "out")):
        edge.register_instance(instance)
        edge.register_attachment(attachment, instance.site)
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    gs.create_chain(
        ChainSpecification(
            "corp", "vpn", "in", "out", vnf_names,
            forward_demand=5.0, reverse_demand=1.0,
            src_prefix="10.0.0.0/24", dst_prefixes=["20.0.0.0/24"],
        )
    )
    return ingress, egress


def test_no_network_is_constructed_on_the_packet_path(monkeypatch):
    ingress, egress = three_vnf_deployment()

    def refuse(*args, **kwargs):
        raise AssertionError(f"ip_network{args} on the packet path")

    monkeypatch.setattr(ipaddress, "ip_network", refuse)
    flow = FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 443)
    first, established = Packet(flow), Packet(flow)
    ingress.ingress(first)
    ingress.ingress(established)
    assert egress.delivered == [first, established]
    assert [hop.split(".")[0] for hop in first.trace if not hop.startswith("fwd")] == [
        "edge", "firewall", "nat", "ids", "edge",
    ]
    assert established.trace == first.trace
    reply = Packet(first.flow.reversed())  # first.flow is the post-NAT tuple
    egress.send_reverse(reply)
    assert reply.flow == flow.reversed()
    assert reply.trace[-1] == ingress.name
    assert ingress.dataplane.drops == []


# -- guard (b): rules evaluated per packet do not grow with rules installed


@pytest.mark.parametrize("installed", [20, 2_000])
def test_rules_evaluated_per_classify_do_not_grow(monkeypatch, installed):
    edge = EdgeInstance("edge", "A", DataPlane(random.Random(0)))
    for i in range(installed):
        hi, lo = divmod(i, 256)
        edge.install_classifier(ClassifierRule(i + 1, src_prefix=f"10.{hi}.{lo}.0/24"))
    evaluated = []
    matches = ClassifierRule.matches

    def counting(rule, *args):
        evaluated.append(rule.chain_label)
        return matches(rule, *args)

    monkeypatch.setattr(ClassifierRule, "matches", counting)
    for i in (0, 7, installed - 1):
        hi, lo = divmod(i, 256)
        flow = FiveTuple(f"10.{hi}.{lo}.9", "20.0.0.9", "tcp", 1234, 443)
        assert edge.classify(flow) == i + 1
    assert evaluated == [1, 8, installed]  # one rule each, whatever is installed
    assert edge.classify(FiveTuple("11.0.0.1", "20.0.0.9", "tcp", 1, 2)) is None
    assert len(evaluated) == 3


# -- the key contract -----------------------------------------------------


def test_key_types_keep_their_contract():
    flow = FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1000, 80)
    labels = Labels(3, "LAX")
    key = FlowKey(labels, flow)
    assert FiveTuple._fields == ("src_ip", "dst_ip", "protocol", "src_port", "dst_port")
    assert Labels._fields == ("chain", "egress_site")
    assert FlowKey._fields == ("labels", "flow")
    assert flow == FiveTuple(
        src_ip="10.0.0.1", dst_ip="20.0.0.1", protocol="tcp", src_port=1000, dst_port=80
    )
    assert (key.labels.chain, key.labels.egress_site, key.flow.dst_port) == (3, "LAX", 80)
    assert flow.reversed() == FiveTuple("20.0.0.1", "10.0.0.1", "tcp", 80, 1000)
    assert type(flow.reversed()) is FiveTuple
    assert flow.reversed().reversed() == flow
    assert hash(flow.reversed().reversed()) == hash(flow)
    for obj, name in ((flow, "src_ip"), (labels, "chain"), (key, "flow")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert {flow: 1}[FiveTuple(*flow)] == 1
    assert repr(labels) == "Labels(chain=3, egress_site='LAX')"


def test_flow_table_stores_flow_keys_and_finds_them():
    table = FlowTable()
    flow, labels = FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1000, 80), Labels(3, "LAX")
    entry = table.insert(labels, flow)
    assert table.lookup(labels, flow) is entry
    assert table.lookup(labels, flow.reversed()) is None
    assert table.lookup(Labels(4, "LAX"), flow) is None
    assert (table.hits, table.misses, table.inserts) == (1, 2, 1)
    (stored,) = table
    assert type(stored) is FlowKey and stored == FlowKey(labels, flow)
    assert table.entries_for_chain(3) == [(stored, entry)]
    assert table.remove(labels, flow) and not table.remove(labels, flow)
