"""Seeded stress tests: many chains, churn, and invariants that must
hold through it all (clean audits, no capacity leaks, conservation)."""

import random

import pytest

from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
    audit_deployment,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import VnfService

SITES = ["A", "B", "C", "D", "E"]
VNFS = {"fw": 1.0, "nat": 0.5, "ids": 2.0}


def build(seed=0, site_capacity=2000.0):
    rng = random.Random(seed)
    nodes = [s.lower() for s in SITES]
    latency = {}
    coords = {n: (rng.uniform(0, 40), rng.uniform(0, 40)) for n in nodes}
    for i, n1 in enumerate(nodes):
        for n2 in nodes[i + 1:]:
            (x1, y1), (x2, y2) = coords[n1], coords[n2]
            latency[(n1, n2)] = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5 + 1.0
    sites = [CloudSite(s, s.lower(), site_capacity) for s in SITES]
    vnf_defs = []
    services = []
    for name, load in VNFS.items():
        deployments = rng.sample(SITES, 3)
        caps = {s: site_capacity / 4 for s in deployments}
        vnf_defs.append(VNF(name, load, caps))
        services.append(VnfService(name, load, dict(caps)))
    model = NetworkModel(nodes, latency, sites, vnf_defs)
    dp = DataPlane(random.Random(seed + 1))
    gs = GlobalSwitchboard(model, dp)
    for site in SITES:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    for service in services:
        gs.register_vnf_service(service)
    edge = EdgeController("vpn")
    for site in SITES:
        edge.register_instance(EdgeInstance(f"edge.{site}", site, dp))
        edge.register_attachment(f"att-{site}", site)
    gs.register_edge_service(edge)
    return gs, rng


def random_spec(rng, index):
    ingress, egress = rng.sample(SITES, 2)
    n_vnfs = rng.randint(1, 3)
    vnfs = rng.sample(list(VNFS), n_vnfs)
    return ChainSpecification(
        f"chain{index:03d}", "vpn", f"att-{ingress}", f"att-{egress}",
        vnfs,
        forward_demand=rng.uniform(2.0, 20.0),
        reverse_demand=rng.uniform(0.0, 5.0),
        dst_prefixes=[f"20.{index % 250}.0.0/24"],
    )


class TestManyChains:
    def test_forty_chains_install_and_audit_clean(self):
        gs, rng = build(seed=5)
        carried = 0
        for i in range(40):
            installation = gs.create_chain(random_spec(rng, i))
            carried += installation.routed_fraction > 0
        assert carried == 40
        gs.router.solution.validate()
        assert audit_deployment(gs) == []

    def test_committed_loads_match_te_loads(self):
        gs, rng = build(seed=6)
        for i in range(25):
            gs.create_chain(random_spec(rng, i))
        te_loads = gs.router.solution.vnf_site_loads()
        for name, service in gs.vnf_services.items():
            for site in service.sites:
                committed = service.committed(site)
                expected = te_loads.get((name, site), 0.0)
                assert committed == pytest.approx(expected, rel=1e-6, abs=1e-6)

    def test_churn_leaves_no_residue(self):
        gs, rng = build(seed=7)
        alive = {}
        for i in range(60):
            if alive and rng.random() < 0.4:
                victim = rng.choice(sorted(alive))
                gs.remove_chain(victim)
                del alive[victim]
            else:
                spec = random_spec(rng, i)
                gs.create_chain(spec)
                alive[spec.name] = True
        # Remove everything that's left.
        for name in sorted(alive):
            gs.remove_chain(name)
        # All capacity returned.
        for service in gs.vnf_services.values():
            for site in service.sites:
                assert service.committed(site) == pytest.approx(0.0, abs=1e-9)
            assert service.pending_reservations() == 0
        # No rules or labels left behind.
        assert audit_deployment(gs) == []
        for fwd in gs.dataplane.forwarders.values():
            assert not fwd.rules
        assert gs.router.solution.throughput() == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_capacity_never_oversubscribed_under_pressure(self, seed):
        # Small capacities: chains are partially admitted or rejected
        # outright, but the solution must stay feasible throughout and
        # rejected installs must leave no residue.
        from repro.controller import InstallationError

        gs, rng = build(seed=seed, site_capacity=120.0)
        admitted = rejected = 0
        for i in range(30):
            try:
                gs.create_chain(random_spec(rng, i))
                admitted += 1
            except InstallationError:
                rejected += 1
        assert admitted > 0
        assert gs.router.solution.violations() == []
        assert audit_deployment(gs) == []
        for service in gs.vnf_services.values():
            assert service.pending_reservations() == 0
