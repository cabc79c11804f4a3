"""Extension: emergent control-plane latency vs controller placement.

The Figure 10a / Table 2 numbers in the paper come from one testbed
geometry.  With the bus-driven Figure 4 protocol (messages over the
simulated WAN instead of a fixed latency budget), installation latency
becomes an *emergent* property of where the controllers sit.  This bench
sweeps the Global Switchboard's placement -- colocated with the ingress
edge, at the VNF's site, or at a third site -- and the WAN delay,
reporting the end-to-end installation latency for each.

The design insight it quantifies: the 2PC round trips and the
instance-announcement propagation dominate, so placing Global
Switchboard near the VNF controllers (not near the customer) minimizes
chain-creation latency.
"""

import random

from _common import emit, fmt, format_table

from repro.bus.bus import make_bus
from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.protocol import BusDrivenInstaller
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane.forwarder import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import VnfService

SITES = ["A", "B", "C"]
WAN_DELAYS_MS = (10.0, 30.0, 70.0)
GS_PLACEMENTS = ("A (ingress)", "B (VNF)", "C (elsewhere)")


def build():
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [CloudSite(s, s.lower(), 100.0) for s in SITES]
    vnfs = [VNF("fw", 1.0, {"B": 40.0})]
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(3))
    gs = GlobalSwitchboard(model, dp)
    for site in SITES:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    gs.register_vnf_service(VnfService("fw", 1.0, {"B": 40.0}))
    edge = EdgeController("vpn")
    edge.register_instance(EdgeInstance("edge.A", "A", dp))
    edge.register_instance(EdgeInstance("edge.C", "C", dp))
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    return gs


def install_once(gs_site: str, wan_delay_s: float) -> float:
    gs = build()
    bus = make_bus(SITES, wan_delay_s=wan_delay_s, uplink_bps=100e6)
    installer = BusDrivenInstaller(
        gs,
        bus,
        gs_site=gs_site,
        edge_controller_site="A",
        vnf_controller_sites={"fw": "B"},
    )
    timeline = installer.install(
        ChainSpecification(
            "corp", "vpn", "in", "out", ["fw"],
            forward_demand=5.0, src_prefix="10.0.0.0/24",
            dst_prefixes=["20.0.0.0/24"],
        )
    )
    installer.network.run()
    assert timeline.failed is None, timeline.failed
    return timeline.total_s


def run_bench():
    rows = []
    for placement, gs_site in zip(GS_PLACEMENTS, SITES):
        row = [placement]
        for delay_ms in WAN_DELAYS_MS:
            row.append(install_once(gs_site, delay_ms / 1e3) * 1e3)
        rows.append(row)
    return rows


def test_ext_protocol_geography(benchmark):
    rows = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    formatted = [
        [row[0]] + [fmt(v, 0) + " ms" for v in row[1:]] for row in rows
    ]
    emit(
        "ext_protocol_geography",
        format_table(
            "Extension -- chain installation latency vs Global Switchboard "
            "placement (bus-driven Figure 4 protocol)",
            ["GS placement"] + [f"WAN {d:.0f} ms" for d in WAN_DELAYS_MS],
            formatted,
            notes=[
                "2PC round trips to the VNF controller dominate: placing "
                "GS at the VNF's site is fastest at every WAN delay",
            ],
        ),
    )

    by_placement = {row[0]: row[1:] for row in rows}
    # GS at the VNF site wins at every WAN delay (2PC RTTs vanish).
    for i in range(len(WAN_DELAYS_MS)):
        assert by_placement["B (VNF)"][i] <= by_placement["A (ingress)"][i]
        assert by_placement["B (VNF)"][i] <= by_placement["C (elsewhere)"][i]
    # Latency grows with WAN delay for every placement.
    for row in rows:
        assert row[1] < row[2] < row[3]
