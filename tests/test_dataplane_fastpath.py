"""The packet walker against its definition, and what a packet costs.

``DataPlane`` walks an established connection's packet with one Python
frame per forwarder hop.  Its definition is the walker it replaced, kept
here as :class:`ReferenceDataPlane`: one step function shared by both
directions, the direction re-read and the reverse key rebuilt at every
hop.  Both must leave every observable in the same state, draw for draw.
The guards at the bottom pin the cost model without timing anything:
frames per packet, what a connection's later packets never call again,
and that the callables the perf ledger wraps stay looked up per call.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.dataplane.forwarder import (
    DataPlane,
    DropPacket,
    Forwarder,
    ForwardingError,
    VnfInstance,
)
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.dataplane.rules import LoadBalancingRule, RuleError, WeightedChoice
from repro.edge import ClassifierRule, EdgeController, EdgeInstance
from repro.edge import instance as edge_instance
from repro.edge.classifier import ClassifierTable, EgressTable
from repro.vnf import NatFunction, StatefulFirewall
from repro.vnf.firewall import FirewallRule
from tests.test_edge_fastpath import three_vnf_deployment

# -- the reference: the walker before the direction handlers --------------


class ReferenceDataPlane(DataPlane):
    """The pre-change ``_walk`` / ``_forward_step`` / ``_forward_direction``
    / ``_reverse_direction``, with the one behaviour change of the same
    PR applied: a set-up whose local pick fails inserts no entry."""

    def send_forward(self, packet, first_forwarder, came_from):
        packet.direction = "forward"
        return self._reference_walk(packet, first_forwarder, came_from)

    def send_reverse(self, packet, first_forwarder, came_from):
        packet.direction = "reverse"
        return self._reference_walk(packet, first_forwarder, came_from)

    def _reference_walk(self, packet, target, came_from):
        hops = 0
        while True:
            hops += 1
            if hops > self.MAX_HOPS:
                raise ForwardingError(
                    f"packet exceeded {self.MAX_HOPS} hops: trace={packet.trace}"
                )
            if target in self.endpoints:
                self.endpoints[target].receive_from_chain(packet, came_from)
                return packet
            forwarder = self.forwarders.get(target)
            if forwarder is None:
                raise ForwardingError(f"unknown forwarding target {target!r}")
            step = self._forward_step(forwarder, packet, came_from)
            if step is None:
                self.drops.append((packet, forwarder.name))
                forwarder.packets_dropped += 1
                return packet
            came_from = forwarder.name
            target = step

    def _forward_step(self, fwd, packet, came_from):
        labels, direction = packet.labels, packet.direction
        if labels is None:
            return None
        packet.record(fwd.name)
        fwd.packets_forwarded += 1
        meter_key = (labels.chain, labels.egress_site, direction)
        traffic = fwd.traffic_bytes
        traffic[meter_key] = traffic.get(meter_key, 0) + packet.size_bytes
        if direction == "forward":
            return self._forward_direction(fwd, packet, came_from)
        return self._reverse_direction(fwd, packet, came_from)

    def _forward_direction(self, fwd, packet, came_from):
        labels = packet.labels
        in_flow = packet.flow
        entry = fwd.flow_table.lookup(labels, in_flow)
        if entry is None:
            rule = fwd.rule_for(labels)
            if rule is None:
                return None
            local_instance = None
            try:
                if len(rule.local_instances):
                    local_instance = rule.local_instances.pick(self.rng)
            except RuleError:
                return None  # the fix: before, the entry was already in
            entry = fwd.flow_table.insert(labels, packet.flow)
            entry.prev_hop = came_from
            entry.local_instance = local_instance
        entry.packets += 1
        if entry.local_instance is not None:
            instance = fwd.attached.get(entry.local_instance)
            if instance is None:
                return None
            try:
                self._reference_run(instance, packet)
            except DropPacket:
                return None
            out_flow = packet.flow
            if out_flow != in_flow:
                entry = fwd.flow_table.alias(labels, out_flow, entry)
        if entry.next_hop is None:
            rule = fwd.rule_for(labels)
            if rule is None or not len(rule.next_forwarders):
                return None
            try:
                entry.next_hop = rule.next_forwarders.pick(self.rng)
            except RuleError:
                return None
        return entry.next_hop

    def _reverse_direction(self, fwd, packet, came_from):
        labels = packet.labels
        entry = fwd.flow_table.lookup(labels, packet.flow.reversed())
        if entry is None:
            return None
        entry.packets += 1
        if entry.local_instance is not None:
            instance = fwd.attached.get(entry.local_instance)
            if instance is None:
                return None
            try:
                self._reference_run(instance, packet)
            except DropPacket:
                return None
        return entry.prev_hop

    @staticmethod
    def _reference_run(instance, packet):
        if instance.supports_labels:
            instance.process(packet)
            return
        saved = packet.labels
        packet.labels = None
        try:
            instance.process(packet)
        finally:
            packet.labels = saved


# -- one fabric, every kind of hop ----------------------------------------


class Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def receive_from_chain(self, packet, came_from):
        packet.record(self.name)
        self.received.append((packet, came_from))


CHAINS = (1, 2, 3, 4)
INSTANCES = ("u1", "u2", "n1", "n2", "w1")


class Seen:
    """A VNF's transform that logs the labels of every packet it is
    handed, then applies the VNF's own transform (if any)."""

    def __init__(self, inner=None):
        self.inner = inner
        self.labels = []

    def __call__(self, packet):
        self.labels.append(packet.labels)
        if self.inner is not None:
            self.inner(packet)


def fronting(forwarders, instance):
    """The forwarder at the instance's site (one per site here)."""
    (forwarder,) = (f for f in forwarders.values() if f.site == instance.site)
    return forwarder


def build_fabric(dataplane_class):
    """f.in (no instance) -> f.u (two label-unaware instances) -> f.nat
    (two NATs, each its own mapping: the alias path) -> f.fw (a firewall
    admitting destination port 80 only) -> the sink.  Chain 1 runs the
    whole way; chain 2 has no rule at f.u; every local weight of chain 3
    at f.u is zero; chain 4 has nowhere to go after f.nat."""
    dp = dataplane_class(random.Random(9))
    forwarders = {
        name: dp.add_forwarder(Forwarder(name, site))
        for name, site in (("f.in", "A"), ("f.u", "B"), ("f.nat", "C"), ("f.fw", "D"))
    }
    instances = {
        "u1": VnfInstance("u1", "U", "B", supports_labels=False, transform=Seen()),
        "u2": VnfInstance("u2", "U", "B", supports_labels=False, transform=Seen()),
        "n1": VnfInstance("n1", "NAT", "C", transform=Seen(NatFunction("99.0.0.1"))),
        "n2": VnfInstance("n2", "NAT", "C", transform=Seen(NatFunction("99.0.0.2"))),
        "w1": VnfInstance(
            "w1", "FW", "D",
            transform=Seen(StatefulFirewall([FirewallRule(dst_port_range=(80, 80))])),
        ),
    }
    for instance in instances.values():
        fronting(forwarders, instance).attach(instance)
    dp.add_endpoint(Sink("out"))
    dp.add_endpoint(Sink("in"))

    def rule(local=None, nxt=None):
        return LoadBalancingRule(
            local_instances=WeightedChoice(local or {}),
            next_forwarders=WeightedChoice(nxt or {}),
        )

    for chain in CHAINS:
        forwarders["f.in"].install_rule(chain, "E", rule(nxt={"f.u": 1.0}))
        forwarders["f.nat"].install_rule(
            chain, "E",
            rule({"n1": 1.0, "n2": 3.0}, {} if chain == 4 else {"f.fw": 1.0}),
        )
        forwarders["f.fw"].install_rule(chain, "E", rule({"w1": 1.0}, {"out": 1.0}))
    forwarders["f.u"].install_rule(1, "E", rule({"u1": 2.0, "u2": 1.0}, {"f.nat": 1.0}))
    forwarders["f.u"].install_rule(3, "E", rule({"u1": 0.0, "u2": 0.0}, {"f.nat": 1.0}))
    forwarders["f.u"].install_rule(4, "E", rule({"u1": 1.0}, {"f.nat": 1.0}))
    return dp, forwarders, instances


def flow_number(i):
    # odd flows aim at port 81, which the firewall refuses
    return FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1000 + i, 80 + i % 2)


def table_state(table):
    """Keys in order with their entry's fields; entries are numbered by
    first appearance, so which keys alias one entry is part of it."""
    numbers = {}
    return [
        (key, numbers.setdefault(id(entry), len(numbers)), entry.packets,
         entry.prev_hop, entry.next_hop, entry.local_instance)
        for key, entry in table.items()
    ]


def observables(dp, forwarders, instances):
    return {
        "drops": [(packet.trace, name) for packet, name in dp.drops],
        "rng": dp.rng.getstate(),
        "received": {
            name: [(packet.trace, packet.flow, packet.labels, came_from)
                   for packet, came_from in sink.received]
            for name, sink in dp.endpoints.items()
        },
        "instances": {
            name: i.transform.labels for name, i in instances.items()
        },
        "forwarders": {
            name: (
                f.traffic_bytes, f.packets_forwarded, f.packets_dropped,
                f.flow_table.hits, f.flow_table.misses, f.flow_table.inserts,
                table_state(f.flow_table),
            )
            for name, f in forwarders.items()
        },
    }


walker_ops = st.lists(
    st.one_of(
        st.tuples(st.just("forward"), st.sampled_from(CHAINS), st.integers(0, 7)),
        st.tuples(st.just("forward"), st.just(1), st.integers(0, 7)),
        st.tuples(st.just("reverse"), st.sampled_from(CHAINS), st.integers(0, 7)),
        st.tuples(st.just("reverse"), st.just(1), st.integers(0, 7)),
        st.tuples(st.just("unlabelled"), st.just(1), st.integers(0, 7)),
        st.tuples(st.just("detach"), st.sampled_from(INSTANCES)),
        st.tuples(st.just("attach"), st.sampled_from(INSTANCES)),
        st.tuples(st.just("weigh"), st.sampled_from(["u1", "u2"]),
                  st.sampled_from([0.0, 1.0, 5.0])),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(walker_ops)
def test_both_walkers_leave_the_same_state(ops):
    """Random streams over every kind of hop: first, established and
    reverse packets (a reply may come before its connection exists),
    rules that are missing, zero-weighted or lead nowhere, instances
    detached and re-attached under live entries, weights moved under
    live entries."""
    fabrics = [build_fabric(DataPlane), build_fabric(ReferenceDataPlane)]
    for op in ops:
        traces = []
        for dp, forwarders, instances in fabrics:
            if op[0] == "detach":
                fronting(forwarders, instances[op[1]]).attached.pop(op[1], None)
            elif op[0] == "attach":
                fronting(forwarders, instances[op[1]]).attach(instances[op[1]])
            elif op[0] == "weigh":
                for chain in (1, 3):
                    forwarders["f.u"].rules[(chain, "E")].local_instances.set_weight(
                        op[1], op[2]
                    )
            elif op[0] == "reverse":
                # the reply to what the sink last saw of this flow (the
                # post-NAT tuple), else to the flow as it was sent
                seen = [
                    packet.flow for packet, _ in dp.endpoints["out"].received
                    if packet.payload == op[1:]
                ]
                flow = seen[-1] if seen else flow_number(op[2])
                packet = Packet(flow.reversed(), labels=Labels(op[1], "E"))
                traces.append(dp.send_reverse(packet, "f.fw", "out").trace)
            else:
                labels = None if op[0] == "unlabelled" else Labels(op[1], "E")
                packet = Packet(flow_number(op[2]), labels=labels, payload=op[1:])
                traces.append(dp.send_forward(packet, "f.in", "in").trace)
        assert traces[:1] == traces[1:]
    assert observables(*fabrics[0]) == observables(*fabrics[1])


def test_the_fabric_reaches_every_kind_of_hop():
    """The equivalence above is only worth what the fabric exercises."""
    dp, forwarders, instances = build_fabric(DataPlane)

    def forward(chain, i):
        return dp.send_forward(
            Packet(flow_number(i), labels=Labels(chain, "E")), "f.in", "in"
        )

    first = forward(1, 0)
    assert first.trace[-1] == "out" and len(first.trace) == 8
    assert forward(1, 0).trace == first.trace  # affinity
    reply = dp.send_reverse(
        Packet(first.flow.reversed(), labels=Labels(1, "E")), "f.fw", "out"
    )
    assert reply.trace[-1] == "in" and reply.flow == flow_number(0).reversed()
    assert forwarders["f.nat"].flow_table.inserts == 1
    assert len(forwarders["f.nat"].flow_table) == 2  # the NAT alias
    assert set(instances[first.trace[2]].transform.labels) == {None}  # label-unaware
    assert forward(1, 1).trace[-1] == "w1"  # refused by the firewall
    assert forward(2, 0).trace[-1] == "f.u"  # no rule
    entries = len(forwarders["f.u"].flow_table)
    assert forward(3, 0).trace[-1] == "f.u"  # every local weight zero
    assert len(forwarders["f.u"].flow_table) == entries  # ... and no entry left
    assert forward(4, 0).trace[-1][0] == "n"  # nowhere to go after the NAT
    assert len(dp.drops) == 4


# -- guard (a): frames per packet ------------------------------------------


def record_calls(patch, log, owner, name):
    """Replace ``owner.name`` (a class or module attribute, as the perf
    ledger does) with a stand-in that logs ``name`` and calls through."""
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    patch.setattr(owner, name, recording)


def python_frames(call, *args):
    """Python-level calls made by ``call(*args)``, itself included."""
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call"

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return frames


def chain_over(hops):
    """edge.in -> f0 (the edge's forwarder, no instance) -> f1 .. one
    label-aware instance each -> edge.out: ``hops`` forwarders."""
    dp = DataPlane(random.Random(1))
    names = [f"f{i}" for i in range(hops)]
    for i, name in enumerate(names):
        forwarder = dp.add_forwarder(Forwarder(name, "A" if i == 0 else "B"))
        local = {}
        if i:
            forwarder.attach(VnfInstance(f"v{i}", "V", "B"))
            local = {f"v{i}": 1.0}
        nxt = names[i + 1] if i + 1 < hops else "edge.out"
        forwarder.install_rule(
            1, "B",
            LoadBalancingRule(WeightedChoice(local), WeightedChoice({nxt: 1.0})),
        )
    ingress, egress = EdgeInstance("edge.in", "A", dp), EdgeInstance("edge.out", "B", dp)
    ingress.attach_forwarder("f0")
    ingress.install_classifier(ClassifierRule(1, src_prefix="10.0.0.0/24"))
    ingress.egress_table.add_route("20.0.0.0/24", "B")
    return dp, ingress, egress


FLOW = FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 443)


@pytest.mark.parametrize("hops", [2, 3, 4])
def test_frames_per_established_packet(hops):
    """ingress, send_forward, _walk, receive_from_chain and per hop the
    handler, the flow-table lookup and the instance (which the edge's
    own forwarder does not have): 3 + 3h.  A reply adds the two
    ``reversed()``: 5 + 3h.  (Before: 14 + 7h and 5 + 9h.)"""
    dp, ingress, egress = chain_over(hops)
    first = Packet(FLOW)
    assert python_frames(ingress.ingress, first) > 3 + 3 * hops  # set-up costs more
    assert first.trace[-1] == "edge.out" and len(first.trace) == 2 * hops + 1
    established = Packet(FLOW)
    assert python_frames(ingress.ingress, established) <= 3 + 3 * hops
    assert established.trace == first.trace
    reply = Packet(FLOW.reversed())
    assert python_frames(egress.send_reverse, reply) <= 5 + 3 * hops
    assert reply.trace[-1] == "edge.in" and len(reply.trace) == 2 * hops + 1
    assert dp.drops == []


# -- guard (b): a connection is classified once -----------------------------


def test_only_a_connections_first_packet_is_parsed_and_classified(monkeypatch):
    _dp, ingress, egress = chain_over(2)
    controller = EdgeController("vpn")
    controller.register_instance(ingress)
    calls = []
    record_calls(monkeypatch, calls, edge_instance, "parse_address")
    record_calls(monkeypatch, calls, ClassifierTable, "first_match")
    record_calls(monkeypatch, calls, EgressTable, "longest_match")
    searched = ["parse_address", "parse_address", "first_match", "longest_match"]

    def searches():
        """What the flow's next packet looks up on its way in."""
        del calls[:]
        packet = Packet(FLOW)
        ingress.ingress(packet)
        assert packet.trace[-1] == "edge.out"
        return list(calls)

    assert searches() == searched  # the connection's first packet
    assert searches() == []
    edits = [
        lambda: ingress.classifier.install(ClassifierRule(2, src_prefix="10.9.0.0/24")),
        lambda: ingress.classifier.remove(2),
        lambda: ingress.install_classifier(ClassifierRule(3, src_prefix="10.9.0.0/24")),
        lambda: ingress.remove_classifier(3),
        lambda: ingress.egress_table.add_route("20.9.0.0/24", "B"),
        lambda: ingress.egress_table.remove_route("20.9.0.0/24", "B"),
        lambda: controller.install_chain(
            "A", Labels(4, "B"), ClassifierRule(4, src_prefix="10.9.0.0/24"),
            [("20.9.0.0/24", "B")],
        ),
        lambda: controller.remove_chain(Labels(4, "B")),
    ]
    for edit in edits:
        edit()
        assert searches() == searched
        assert searches() == []
    # edits that change nothing flush nothing
    ingress.remove_classifier(99)
    controller.remove_chain(Labels(98, "B"))
    assert not ingress.egress_table.remove_route("20.9.0.0/24", "B")
    assert searches() == []
    # a flow the edge cannot label is searched for, and reported, every time
    stranger = FiveTuple("11.0.0.1", "20.0.0.9", "tcp", 1, 2)
    for sent in (1, 2):
        del calls[:]
        ingress.ingress(Packet(stranger))
        assert calls == searched[:3] and len(ingress.unclassified) == sent


def test_connection_table_is_bounded(monkeypatch):
    monkeypatch.setattr(edge_instance, "MAX_CONNECTIONS", 4)
    _dp, ingress, egress = chain_over(2)
    for port in range(1, 12):
        for _ in range(2):
            ingress.ingress(Packet(FLOW._replace(src_port=port)))
        assert 1 <= len(ingress._connections) <= 4
    assert len(egress.delivered) == 22


# -- guard (c): the reverse key is built once per walk ----------------------


def reversals_inside_send_reverse(monkeypatch, dp, packet, first_forwarder, came_from):
    calls = []
    with monkeypatch.context() as patch:
        record_calls(patch, calls, FiveTuple, "reversed")
        dp.send_reverse(packet, first_forwarder, came_from)
    return len(calls)


def test_reverse_key_is_built_once_per_walk_and_again_after_a_rewrite(monkeypatch):
    dp, ingress, egress = chain_over(3)
    ingress.ingress(Packet(FLOW))
    reply = Packet(FLOW.reversed(), labels=Labels(1, "B"))
    assert reversals_inside_send_reverse(monkeypatch, dp, reply, "f2", "edge.out") == 1
    assert reply.trace == ["f2", "v2", "f1", "v1", "f0", "edge.in"]

    # through a NAT the tuple changes mid-walk: once before it, once after
    dp = DataPlane(random.Random(5))
    f_in = dp.add_forwarder(Forwarder("f.in", "A"))
    f_nat = dp.add_forwarder(Forwarder("f.nat", "B"))
    f_nat.attach(VnfInstance("nat1", "NAT", "B", transform=NatFunction("99.9.9.9")))
    out = Sink("out")
    dp.add_endpoint(out)
    dp.add_endpoint(Sink("in"))
    f_in.install_rule(1, "E", LoadBalancingRule(next_forwarders=WeightedChoice({"f.nat": 1.0})))
    f_nat.install_rule(
        1, "E",
        LoadBalancingRule(WeightedChoice({"nat1": 1.0}), WeightedChoice({"out": 1.0})),
    )
    dp.send_forward(Packet(FLOW, labels=Labels(1, "E")), "f.in", "in")
    public = out.received[0][0].flow
    reply = Packet(public.reversed(), labels=Labels(1, "E"))
    assert reversals_inside_send_reverse(monkeypatch, dp, reply, "f.nat", "out") == 2
    assert reply.trace == ["f.nat", "nat1", "f.in", "in"]
    assert reply.flow == FLOW.reversed()


# -- guard (d): what the perf ledger wraps is looked up per call ------------


def test_callables_replaced_on_the_class_are_seen_by_the_next_packet(monkeypatch):
    """``benchmarks/ledger/spans.py`` times the packet path by replacing
    these attributes on their classes after the deployment is built: a
    bound method captured at construction, or a body inlined into its
    caller, would silently fall out of the ledger."""
    ingress, egress = three_vnf_deployment()
    flow = FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 443)
    first = Packet(flow)
    ingress.ingress(first)
    seen = []
    for owner, name in (
        (FlowTable, "lookup"), (FlowTable, "insert"), (VnfInstance, "process"),
        (EdgeInstance, "receive_from_chain"), (EdgeInstance, "ingress"),
        (EdgeInstance, "send_reverse"), (DataPlane, "send_forward"),
        (DataPlane, "send_reverse"),
    ):
        record_calls(monkeypatch, seen, owner, name)
    hops = sum(hop.startswith("fwd.") for hop in first.trace)
    ingress.ingress(Packet(flow))
    assert sorted(seen) == sorted(
        ["ingress", "send_forward", "receive_from_chain"]
        + ["lookup"] * hops + ["process"] * 3
    )
    del seen[:]
    egress.send_reverse(Packet(first.flow.reversed()))
    assert sorted(seen) == sorted(
        ["send_reverse", "send_reverse", "receive_from_chain"]
        + ["lookup"] * hops + ["process"] * 3
    )
    del seen[:]
    ingress.ingress(Packet(flow._replace(src_port=4321)))
    assert seen.count("insert") == hops and seen.count("lookup") == hops
