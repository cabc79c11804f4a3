"""Figure 10: dynamic chain-route creation.

Paper result (single AWS site split into virtual sites A and B, a NAT
chain initially routed only through A):

(a) adding a new route through B takes 595 ms end to end, and the
    existing route's throughput is unaffected -- load balances evenly
    across both routes afterwards;
(b) the addition doubles the chain's total throughput, commensurate with
    the new route's capacity.

This bench reproduces both halves: the control-plane latency on the
timed Figure 4 message flow, and the data-plane throughput before/after
via the Global Switchboard + E2E model.
"""

import random

import pytest
from _common import emit, fmt, format_table

from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.timing import (
    PAPER_ROUTE_UPDATE_MS,
    simulate_chain_route_update,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane.e2e import E2ERoute, E2ETestbed, VnfInstanceSpec
from repro.dataplane.forwarder import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import VnfService

NAT_CAPACITY_MBPS = 100.0


def run_control_plane():
    """The orchestration half: route a chain through A only, then open
    capacity at B and extend the chain (the paper's 'new chain route')."""
    nodes = ["a", "b"]
    latency = {("a", "b"): 1.0}  # two virtual sites in one datacenter
    sites = [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)]
    # The NAT at A carries exactly half the chain's demand (load per
    # unit fraction = 2 x (10 + 10) = 40), as in the paper's experiment
    # where the single-site route saturates.
    vnfs = [VNF("nat", 1.0, {"A": 20.0, "B": 0.0})]
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(0))
    gs = GlobalSwitchboard(model, dp)
    for site in ("A", "B"):
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    service = VnfService("nat", 1.0, {"A": 20.0, "B": 0.0})
    gs.register_vnf_service(service)
    edge = EdgeController("vpn")
    for name, site in (("edge.A", "A"), ("edge.B", "B")):
        edge.register_instance(EdgeInstance(name, site, dp))
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "B")
    gs.register_edge_service(edge)

    spec = ChainSpecification(
        "natchain", "vpn", "in", "out", ["nat"],
        forward_demand=10.0, reverse_demand=10.0,
        src_prefix="10.0.0.0/24", dst_prefixes=["20.0.0.0/24"],
    )
    installation = gs.create_chain(spec)
    before = installation.routed_fraction

    # The operator requests a route via B (B's NAT comes online).
    gs.model.vnfs["nat"] = VNF("nat", 1.0, {"A": 20.0, "B": 20.0})
    service.site_capacity["B"] = 20.0
    service._committed.setdefault("B", 0.0)
    gained = gs.extend_chain("natchain")
    after = installation.routed_fraction
    stage1 = gs.router.solution.stage_flows("natchain", 1)
    return before, gained, after, stage1


def run_data_plane():
    """The throughput half on the E2E model: one NAT instance, then two."""
    def evaluate(instances):
        bed = E2ETestbed(rtt_ms={("A", "B"): 1.0})
        for name in instances:
            bed.add_instance(
                VnfInstanceSpec(name, name[-1], NAT_CAPACITY_MBPS)
            )
        for i, name in enumerate(instances):
            bed.add_route(
                E2ERoute(
                    f"route{i}", ["A", name[-1], "B"], [name], 500.0
                )
            )
        return bed.evaluate()

    one = evaluate(["natA"])
    two = evaluate(["natA", "natB"])
    return one, two


def run_figure10():
    timeline = simulate_chain_route_update()
    control = run_control_plane()
    data = run_data_plane()
    return timeline, control, data


def test_fig10_dynamic_chaining(benchmark):
    timeline, control, data = benchmark.pedantic(
        run_figure10, iterations=1, rounds=1
    )
    before, gained, after, stage1 = control
    one, two = data
    total_ms = timeline.total_s * 1e3

    step_rows = [
        (m.operation, fmt(m.duration_s * 1e3, 0)) for m in timeline.milestones
    ]
    emit(
        "fig10_dynamic_chaining",
        format_table(
            "Figure 10a -- chain route update latency breakdown",
            ["operation", "ms"],
            step_rows,
            notes=[
                f"total: {fmt(total_ms, 0)} ms "
                f"(paper: {fmt(PAPER_ROUTE_UPDATE_MS, 0)} ms)",
            ],
        )
        + format_table(
            "Figure 10a (cont.) -- routed demand before/after the new route",
            ["phase", "routed fraction"],
            [
                ("route via A only", fmt(before)),
                ("after route via B", fmt(after)),
            ],
            notes=["load balances evenly: " + ", ".join(
                f"{dst}={fmt(frac)}" for (_s, dst), frac in sorted(stage1.items())
            )],
        )
        + format_table(
            "Figure 10b -- chain throughput before/after (E2E model)",
            ["configuration", "total Mbps"],
            [
                ("1 NAT instance (site A)", fmt(one.total_throughput_mbps, 0)),
                ("2 NAT instances (A+B)", fmt(two.total_throughput_mbps, 0)),
            ],
            notes=["paper: the new chain route doubles total throughput"],
        ),
    )

    # Control-plane latency within 5% of the paper's 595 ms.
    assert abs(total_ms - PAPER_ROUTE_UPDATE_MS) / PAPER_ROUTE_UPDATE_MS < 0.05
    # The new route doubles the admitted demand and splits load evenly.
    assert after == pytest.approx(2 * before, rel=0.01)
    assert gained > 0
    fractions = sorted(stage1.values())
    assert fractions[0] == pytest.approx(fractions[1], rel=0.01)
    # Data plane: throughput exactly doubles.
    assert two.total_throughput_mbps == pytest.approx(
        2 * one.total_throughput_mbps
    )
