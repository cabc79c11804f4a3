"""Ablation: DHT-replicated flow tables vs private per-forwarder tables.

DESIGN.md calls out the Section 5.3 design choice: the base Switchboard
forwarder keeps private flow tables, which break flow affinity when a
forwarder fails or the fleet is rescaled; the paper sketches (and this
repo implements) a replicated-DHT flow table as the remedy.

The bench measures, under forwarder churn, the fraction of established
connections whose VNF-instance binding survives:

- **private** tables: all state on the failed forwarder is lost;
- **DHT r=1**: consistent hashing without replication -- graceful
  rescaling is loss-free, crashes still lose the failed node's shard;
- **DHT r=2**: single crashes are fully masked.

It also reports the DHT's costs: remote lookups and rebalance transfers.
"""

import random

from _common import emit, fmt, format_table

from repro.dataplane.dht import DhtFlowTableView, ReplicatedFlowTable
from repro.dataplane.forwarder import DataPlane, Forwarder, VnfInstance
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.dataplane.rules import LoadBalancingRule, WeightedChoice

NUM_FORWARDERS = 4
NUM_FLOWS = 400
LBL = Labels(chain=1, egress_site="E")


class _Sink:
    name = "out"

    def receive_from_chain(self, packet, came_from):
        packet.record("out")


def flow(i: int) -> FiveTuple:
    return FiveTuple("10.0.0.1", "20.0.0.1", "tcp", i + 1, 80)


def build(mode: str):
    """mode: 'private', 'dht1', or 'dht2'."""
    table = None
    if mode != "private":
        table = ReplicatedFlowTable(replication=1 if mode == "dht1" else 2)
    dp = DataPlane(random.Random(1))
    forwarders = []
    instances = []
    rule_instances = {}
    for i in range(NUM_FORWARDERS):
        name = f"f{i}"
        ft = DhtFlowTableView(table, name) if table is not None else None
        fwd = dp.add_forwarder(Forwarder(name, "A", flow_table=ft))
        inst = VnfInstance(f"g{i}", "G", "A")
        fwd.attach(inst)
        forwarders.append(fwd)
        instances.append(inst)
        rule_instances[f"g{i}"] = 1.0
    dp.add_endpoint(_Sink())
    for i, fwd in enumerate(forwarders):
        fwd.install_rule(
            1,
            "E",
            LoadBalancingRule(
                local_instances=WeightedChoice({f"g{i}": 1.0}),
                next_forwarders=WeightedChoice({"out": 1.0}),
            ),
        )
    return dp, table, forwarders, instances


def run_mode(mode: str):
    dp, table, forwarders, instances = build(mode)
    # Establish flows, spread round-robin over entry forwarders.
    pinned = {}
    for i in range(NUM_FLOWS):
        entry = forwarders[i % NUM_FORWARDERS]
        packet = Packet(flow(i), labels=LBL)
        dp.send_forward(packet, entry.name, "edge")
        pinned[i] = [e for e in packet.trace if e.startswith("g")][0]

    # Crash f0; its VNF instance re-homes to f1 (same site).
    crashed, fallback = forwarders[0], forwarders[1]
    if table is not None:
        table.fail(crashed.name)
    del dp.forwarders[crashed.name]
    fallback.attach(instances[0])
    fallback.install_rule(
        1,
        "E",
        LoadBalancingRule(
            local_instances=WeightedChoice(
                {instances[0].name: 1.0, instances[1].name: 1.0}
            ),
            next_forwarders=WeightedChoice({"out": 1.0}),
        ),
    )

    preserved = 0
    for i in range(NUM_FLOWS):
        entry = forwarders[i % NUM_FORWARDERS]
        if entry is crashed:
            entry = fallback
        packet = Packet(flow(i), labels=LBL)
        dp.send_forward(packet, entry.name, "edge")
        chosen = [e for e in packet.trace if e.startswith("g")]
        if chosen and chosen[0] == pinned[i]:
            preserved += 1
    remote = table.stats.remote_hits if table is not None else 0
    transfers = table.stats.transferred_entries if table is not None else 0
    return preserved / NUM_FLOWS, remote, transfers


def run_ablation():
    return {mode: run_mode(mode) for mode in ("private", "dht1", "dht2")}


def test_ablation_dht_flowtable(benchmark):
    results = benchmark.pedantic(run_ablation, iterations=1, rounds=1)
    rows = [
        (
            {"private": "private tables",
             "dht1": "DHT, replication=1",
             "dht2": "DHT, replication=2"}[mode],
            fmt(100 * preserved, 1) + "%",
            remote,
            transfers,
        )
        for mode, (preserved, remote, transfers) in results.items()
    ]
    emit(
        "ablation_dht_flowtable",
        format_table(
            "Ablation -- flow affinity across a forwarder crash "
            f"({NUM_FORWARDERS} forwarders, {NUM_FLOWS} flows)",
            ["flow-table design", "affinity preserved", "remote lookups",
             "rebalance transfers"],
            rows,
            notes=[
                "private tables lose the crashed forwarder's connections;"
                " DHT replication=2 masks any single crash",
            ],
        ),
    )

    private, dht1, dht2 = (
        results["private"][0], results["dht1"][0], results["dht2"][0]
    )
    assert dht2 == 1.0                 # full affinity despite the crash
    assert private < 1.0               # base design loses state
    assert private <= dht1 <= dht2 + 1e-9
    assert results["dht2"][1] > 0      # the cost: remote lookups happen
