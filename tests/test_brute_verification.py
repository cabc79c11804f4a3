"""Brute-force verification of the DP recurrence and protocol equivalence.

Two of the strongest correctness anchors in the suite:

1. on enumerable instances at zero load, SB-DP's path must equal the
   brute-force latency optimum exactly (the Equation 8 recurrence is an
   exact shortest-path computation in that regime);
2. the bus-driven Figure 4 protocol must leave the deployment in the
   same state as the synchronous installation path, for randomized
   deployments.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.reference.brute import BruteForceError, enumerate_paths, min_latency_path
from repro.core.dp import DpConfig, route_chains_dp
from repro.core.model import Chain, CloudSite, NetworkModel, VNF


@st.composite
def enumerable_model(draw):
    """A random model small enough to brute-force: <= 4 sites, chain of
    <= 3 VNFs, ample capacity (so load never constrains)."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    num_nodes = draw(st.integers(3, 5))
    nodes = [f"n{i}" for i in range(num_nodes)]
    coords = {n: (rng.uniform(0, 40), rng.uniform(0, 40)) for n in nodes}
    latency = {}
    for i, n1 in enumerate(nodes):
        for n2 in nodes[i + 1:]:
            (x1, y1), (x2, y2) = coords[n1], coords[n2]
            latency[(n1, n2)] = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5 + 0.5
    sites = [
        CloudSite(f"S{i}", node, 1e9) for i, node in enumerate(nodes)
    ]
    num_vnfs = draw(st.integers(1, 3))
    vnfs = []
    for v in range(num_vnfs):
        deployments = rng.sample(sites, rng.randint(1, len(sites)))
        vnfs.append(
            VNF(f"f{v}", 1.0, {s.name: 1e9 for s in deployments})
        )
    ingress, egress = rng.sample(nodes, 2)
    chain = Chain(
        "c0", ingress, egress, [f"f{v}" for v in range(num_vnfs)], 1.0
    )
    return NetworkModel(nodes, latency, sites, vnfs, [chain])


class TestDpMatchesBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(enumerable_model())
    def test_dp_latency_equals_brute_force_optimum(self, model):
        chain = model.chains["c0"]
        optimum = min_latency_path(model, chain)
        result = route_chains_dp(model, DpConfig.latency_only())
        assert result.fully_routed
        dp_latency = result.solution.chain_latency("c0")
        assert dp_latency == pytest.approx(optimum.latency, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(enumerable_model())
    def test_full_dp_at_zero_load_also_optimal(self, model):
        # With astronomically large capacities the utilization penalty is
        # ~0, so full SB-DP must also land on the latency optimum.
        chain = model.chains["c0"]
        optimum = min_latency_path(model, chain)
        result = route_chains_dp(model)
        dp_latency = result.solution.chain_latency("c0")
        assert dp_latency == pytest.approx(optimum.latency, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(enumerable_model())
    def test_lp_min_latency_matches_brute_force(self, model):
        from repro.core.lp import LpObjective, solve_chain_routing_lp

        chain = model.chains["c0"]
        optimum = min_latency_path(model, chain)
        result = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
        assert result.ok
        # Objective = demand (1.0 per stage) x path latency.
        assert result.objective == pytest.approx(optimum.latency, rel=1e-6)

    def test_enumeration_counts_paths(self):
        nodes = ["a", "b"]
        latency = {("a", "b"): 1.0}
        sites = [CloudSite("A", "a", 10.0), CloudSite("B", "b", 10.0)]
        vnfs = [
            VNF("f0", 1.0, {"A": 10.0, "B": 10.0}),
            VNF("f1", 1.0, {"A": 10.0, "B": 10.0}),
        ]
        chain = Chain("c", "a", "b", ["f0", "f1"], 1.0)
        model = NetworkModel(nodes, latency, sites, vnfs, [chain])
        assert len(enumerate_paths(model, chain)) == 4  # 2 x 2

    def test_enumeration_cap(self):
        nodes = [f"n{i}" for i in range(8)]
        latency = {
            (a, b): 1.0
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
        }
        sites = [CloudSite(f"S{i}", n, 10.0) for i, n in enumerate(nodes)]
        caps = {s.name: 10.0 for s in sites}
        vnfs = [VNF(f"f{v}", 1.0, caps) for v in range(8)]
        chain = Chain("c", "n0", "n1", [v.name for v in vnfs], 1.0)
        model = NetworkModel(nodes, latency, sites, vnfs, [chain])
        with pytest.raises(BruteForceError):
            enumerate_paths(model, chain, max_paths=1000)


# ---------------------------------------------------------------------------
# Bus-driven protocol equivalence over randomized deployments
# ---------------------------------------------------------------------------

from repro.bus.bus import make_bus  # noqa: E402
from repro.controller import (  # noqa: E402
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.protocol import BusDrivenInstaller  # noqa: E402
from repro.dataplane import DataPlane  # noqa: E402
from repro.edge import EdgeController, EdgeInstance  # noqa: E402
from repro.vnf import VnfService  # noqa: E402


def random_deployment(seed: int):
    rng = random.Random(seed)
    nodes = ["a", "b", "c", "d"]
    site_names = [n.upper() for n in nodes]
    latency = {}
    coords = {n: (rng.uniform(0, 30), rng.uniform(0, 30)) for n in nodes}
    for i, n1 in enumerate(nodes):
        for n2 in nodes[i + 1:]:
            (x1, y1), (x2, y2) = coords[n1], coords[n2]
            latency[(n1, n2)] = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5 + 1.0
    sites = [CloudSite(s, s.lower(), 500.0) for s in site_names]
    num_vnfs = rng.randint(1, 2)
    vnf_caps = {}
    for v in range(num_vnfs):
        deployments = rng.sample(site_names, rng.randint(1, 3))
        vnf_caps[f"f{v}"] = {s: rng.uniform(20, 60) for s in deployments}
    vnfs = [VNF(name, 1.0, caps) for name, caps in vnf_caps.items()]
    model = NetworkModel(nodes, latency, sites, vnfs)

    dp = DataPlane(random.Random(seed + 1))
    gs = GlobalSwitchboard(model, dp)
    for site in site_names:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    for name, caps in vnf_caps.items():
        gs.register_vnf_service(VnfService(name, 1.0, dict(caps)))
    edge = EdgeController("vpn")
    ingress_site, egress_site = rng.sample(site_names, 2)
    edge.register_instance(EdgeInstance(f"edge.{ingress_site}", ingress_site, dp))
    edge.register_instance(EdgeInstance(f"edge.{egress_site}", egress_site, dp))
    edge.register_attachment("in", ingress_site)
    edge.register_attachment("out", egress_site)
    gs.register_edge_service(edge)
    spec = ChainSpecification(
        "corp", "vpn", "in", "out", sorted(vnf_caps),
        forward_demand=rng.uniform(1.0, 8.0),
        src_prefix="10.0.0.0/24",
        dst_prefixes=["20.0.0.0/24"],
    )
    controller_sites = {
        name: sorted(caps)[0] for name, caps in vnf_caps.items()
    }
    return gs, spec, controller_sites


class TestProtocolEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_bus_driven_matches_synchronous(self, seed):
        gs_sync, spec, _sites = random_deployment(seed)
        gs_sync.create_chain(spec)

        gs_bus, spec2, controller_sites = random_deployment(seed)
        bus = make_bus(
            [s for s in gs_bus.locals], wan_delay_s=0.02, uplink_bps=100e6
        )
        installer = BusDrivenInstaller(
            gs_bus,
            bus,
            gs_site=sorted(gs_bus.locals)[0],
            edge_controller_site=sorted(gs_bus.locals)[0],
            vnf_controller_sites=controller_sites,
        )
        timeline = installer.install(spec2)
        installer.network.run()
        assert timeline.failed is None

        chain = gs_sync.model.chains["corp"]
        for z in range(1, chain.num_stages + 1):
            assert gs_sync.router.solution.stage_flows(
                "corp", z
            ) == pytest.approx(gs_bus.router.solution.stage_flows("corp", z))
        assert gs_sync.installations["corp"].committed_load == pytest.approx(
            gs_bus.installations["corp"].committed_load
        )
