"""Tests for the solver farm's chain-set partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.scale import PartitionError, coupling_groups, partition, partition_chains


def clustered_model(num_clusters=3, demand=5.0):
    """``num_clusters`` fully disjoint islands: own nodes, sites, VNF,
    and chain.  No resource is shared across islands, so every island
    is its own coupling group and partitioning is exact."""
    nodes, latency, sites, vnfs, chains = [], {}, [], [], []
    for i in range(num_clusters):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        nodes += [a, b, c]
        latency[(a, b)] = 10.0
        latency[(a, c)] = 30.0
        latency[(b, c)] = 15.0
        sites += [
            CloudSite(f"A{i}", a, 100.0),
            CloudSite(f"B{i}", b, 100.0),
            CloudSite(f"C{i}", c, 100.0),
        ]
        vnfs.append(VNF(f"fw{i}", 1.0, {f"A{i}": 50.0, f"B{i}": 50.0}))
        chains.append(Chain(f"c{i}", a, c, [f"fw{i}"], demand, 0.0))
    return NetworkModel(nodes, latency, sites, vnfs, chains)


def coupled_model(num_chains=4, demands=None, fw_cap=100.0, bandwidth=None):
    """Every chain shares the single fw deployment (and optionally one
    link), so all chains form one coupling group."""
    demands = demands or [5.0] * num_chains
    nodes = ["a", "b"]
    latency = {("a", "b"): 10.0}
    sites = [CloudSite("A", "a", 1000.0), CloudSite("B", "b", 1000.0)]
    vnfs = [VNF("fw", 1.0, {"B": fw_cap})]
    chains = [
        Chain(f"c{i}", "a", "b", ["fw"], demands[i], 0.0)
        for i in range(num_chains)
    ]
    links, routing = [], {}
    if bandwidth is not None:
        links = [Link("ab", "a", "b", bandwidth), Link("ba", "b", "a", bandwidth)]
        routing = {("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}}
    return NetworkModel(nodes, latency, sites, vnfs, chains, links, routing)


class TestCouplingGroups:
    def test_disjoint_clusters_are_separate_groups(self):
        model = clustered_model(3)
        assert coupling_groups(model) == [["c0"], ["c1"], ["c2"]]

    def test_shared_vnf_site_couples_chains(self):
        model = coupled_model(4)
        assert coupling_groups(model) == [["c0", "c1", "c2", "c3"]]

    def test_deterministic_order(self):
        model = clustered_model(4)
        assert coupling_groups(model) == coupling_groups(model)


class TestPartitionPlan:
    def test_exact_when_groups_fit(self):
        plan = partition_chains(clustered_model(3), max_chains=2)
        assert plan.exact
        assert len(plan.partitions) == 3
        assert all(p.exact for p in plan.partitions)

    def test_none_keeps_groups_whole(self):
        plan = partition_chains(coupled_model(6), max_chains=None)
        assert plan.exact
        assert len(plan.partitions) == 1
        assert plan.partitions[0].chains == ("c0", "c1", "c2", "c3", "c4", "c5")

    def test_oversized_group_split_inexact(self):
        plan = partition_chains(coupled_model(4), max_chains=2)
        assert not plan.exact
        assert len(plan.partitions) == 2
        assert {c for p in plan.partitions for c in p.chains} == {
            "c0", "c1", "c2", "c3"
        }

    def test_shares_sum_to_one_per_resource(self):
        model = coupled_model(4, demands=[1.0, 2.0, 3.0, 4.0], bandwidth=50.0)
        plan = partition_chains(model, max_chains=2)
        totals = {}
        for part in plan.partitions:
            for resource in (("vnf", "fw", "B"), ("site", "B"), ("link", "ab")):
                totals[resource] = totals.get(resource, 0.0) + plan.share(
                    part.index, resource
                )
        for resource, total in totals.items():
            assert total == pytest.approx(1.0), resource

    def test_idle_chains_split_a_contended_budget_evenly(self):
        model = coupled_model(4, demands=[0.0] * 4, bandwidth=10.0)
        plan = partition_chains(model, max_chains=2)
        assert plan._shares == {
            index: {("vnf", "fw", "B"): 0.5, ("site", "B"): 0.5}
            for index in (0, 1)
        }

    def test_exact_submodel_keeps_full_capacities(self):
        model = clustered_model(3)
        plan = partition_chains(model, max_chains=1)
        sub = plan.submodel(model, 0)
        assert set(sub.chains) == set(plan.partitions[0].chains)
        assert sub.vnfs["fw0"].site_capacity == {"A0": 50.0, "B0": 50.0}

    def test_split_submodel_scales_capacities_and_links(self):
        model = coupled_model(4, bandwidth=40.0)
        plan = partition_chains(model, max_chains=2)
        for part in plan.partitions:
            sub = plan.submodel(model, part.index)
            share = plan.share(part.index, ("vnf", "fw", "B"))
            assert 0 < share < 1
            assert sub.vnfs["fw"].site_capacity["B"] == pytest.approx(
                100.0 * share
            )
            link_share = plan.share(part.index, ("link", "ab"))
            assert sub.links["ab"].bandwidth == pytest.approx(
                40.0 * link_share
            )
            assert sub.links["ab"].bandwidth > 0

    def test_membership_is_demand_independent(self):
        model = coupled_model(4, demands=[1.0, 2.0, 3.0, 4.0])
        plan = partition_chains(model, max_chains=2)
        scaled = coupled_model(4, demands=[4.0, 3.0, 2.0, 1.0])
        replan = partition_chains(scaled, max_chains=2)
        assert [p.chains for p in plan.partitions] == [
            p.chains for p in replan.partitions
        ]

    def test_compatible_with_demand_change_only(self):
        model = coupled_model(3)
        plan = partition_chains(model, max_chains=2)
        assert plan.compatible_with(model)
        assert plan.compatible_with(coupled_model(3, demands=[9.0, 1.0, 2.0]))
        assert not plan.compatible_with(coupled_model(4))
        different = coupled_model(3)
        different.remove_chain("c0")
        different.add_chain(Chain("c0", "b", "a", ["fw"], 5.0, 0.0))
        assert not plan.compatible_with(different)

    def test_partitions_for(self):
        plan = partition_chains(clustered_model(3), max_chains=1)
        by_chain = {
            chain: p.index for p in plan.partitions for chain in p.chains
        }
        assert plan.partitions_for(["c0"]) == {by_chain["c0"]}
        assert plan.partitions_for(["c0", "c2"]) == {
            by_chain["c0"], by_chain["c2"]
        }
        with pytest.raises(PartitionError):
            plan.partitions_for(["ghost"])

    def test_empty_model_rejected(self):
        model = clustered_model(1)
        model.remove_chain("c0")
        with pytest.raises(PartitionError):
            partition_chains(model)

    def test_nonpositive_max_chains_rejected(self):
        with pytest.raises(PartitionError):
            partition_chains(clustered_model(1), max_chains=0)


def test_a_chain_with_no_finite_site_sequence_gets_only_overflow_links():
    """Regression: with the only way to ``fw``'s site failed (its delay
    +inf both ways, as ``fail_link`` leaves it), SB-DP carries nothing,
    and the latency-path fallback found no site sequence either -- and
    raised ``KeyError`` instead of leaving the chains their overflow
    link weights."""
    links = [Link(f"{x}{y}", x, y, 100.0) for x, y in ("ab", "ba", "bc", "cb")]
    model = NetworkModel(
        nodes=["a", "b", "c"],
        latency={("a", "b"): 4.0, ("b", "c"): 5.0, ("a", "c"): 10.0},
        sites=[CloudSite("sb", "b", 100.0)],
        vnfs=[VNF("fw", 1.0, {"sb": 50.0})],
        chains=[Chain(f"c{i}", "a", "c", ["fw"], 5.0, 0.0) for i in range(2)],
        links=links,
        routing={
            ("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0},
            ("b", "c"): {"bc": 1.0}, ("c", "b"): {"cb": 1.0},
            ("a", "c"): {"ab": 1.0, "bc": 1.0}, ("c", "a"): {"cb": 1.0, "ba": 1.0},
        },
    )
    model._latency[("a", "b")] = model._latency[("b", "a")] = float("inf")
    model.invalidate_substrate()
    plan = partition_chains(model, 1)
    assert [p.chains for p in plan.partitions] == [("c0",), ("c1",)]
    # each chain could load every link of its two stages, so each holds
    # half of every one of them, and half of the firewall
    for index in (0, 1):
        assert plan.share(index, ("link", "ab")) == 0.5
        assert plan.share(index, ("link", "bc")) == 0.5
        assert plan.share(index, ("vnf", "fw", "sb")) == 0.5


def union_find_groups(names, resources):
    """The reference grouping: merge names through every shared resource,
    then sort."""
    parent = list(range(len(names)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    owner = {}
    for i, held in enumerate(resources):
        for resource in held:
            if resource in owner:
                parent[root(i)] = root(owner[resource])
            owner[resource] = i
    groups = {}
    for i, name in enumerate(names):
        groups.setdefault(root(i), []).append(name)
    return sorted(sorted(group) for group in groups.values())


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 30),
    held=st.lists(st.sets(st.integers(0, 29), max_size=4), min_size=1, max_size=25),
    order=st.randoms(use_true_random=False),
)
def test_coupling_components_are_the_union_find_groups(size, held, order):
    """The partitioner's components over the name x resource incidence,
    on any incidence: sparse ones, chains of pairwise overlaps (the
    slowest to converge), names without resources, names out of order."""
    resources = [sorted(r % size for r in chain) for chain in held]
    names = [f"c{i:02d}" for i in range(len(held))]
    order.shuffle(names)
    got = partition._coupled(names, [np.array(r, dtype=np.int64) for r in resources], size)
    assert got == union_find_groups(names, resources)


def test_a_path_of_overlaps_is_one_group():
    """Chain ``i`` shares resource ``i`` with chain ``i - 1``: the group
    grows one name per hop."""
    names = [f"c{i:03d}" for i in range(60)]
    resources = [np.array([i, i + 1], dtype=np.int64) for i in range(60)][::-1]
    assert partition._coupled(names, resources, 61) == [sorted(names)]
