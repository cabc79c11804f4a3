"""Property tests: solver farm vs. monolithic SB-LP equivalence.

On models whose chains form disjoint coupling clusters the farm's
partitioning is *exact* (the joint LP is block-diagonal), so the merged
result must match the monolithic solve for every objective:

- ``MIN_LATENCY``: identical objective (sum over partitions) and all
  demand carried in both;
- ``MAX_THROUGHPUT``: identical carried demand (the raw objective mixes
  in a per-model latency-tiebreak scaling, so demand is the comparable
  quantity);
- ``MIN_MLU``: identical bottleneck utilization (max over partitions).

Split (inexact) partitioning is exercised too: the merged solution must
always be feasible for the original model and carry no more than the
monolithic optimum.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.scale import SolverFarm, partition_chains

TOL = 1e-6


@st.composite
def clustered_model(draw, with_links=False):
    """2-4 disjoint islands; each island has its own nodes, sites, one
    VNF, optional links, and 1-2 chains.  No resource is shared across
    islands, so coupling groups == islands and partitioning is exact."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    num_clusters = draw(st.integers(2, 4))
    nodes, latency, sites, vnfs, chains = [], {}, [], [], []
    links, routing = [], {}
    for i in range(num_clusters):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        nodes += [a, b, c]
        latency[(a, b)] = rng.uniform(5, 20)
        latency[(a, c)] = rng.uniform(20, 40)
        latency[(b, c)] = rng.uniform(5, 20)
        sites += [
            CloudSite(f"A{i}", a, rng.uniform(50, 200)),
            CloudSite(f"B{i}", b, rng.uniform(50, 200)),
        ]
        vnfs.append(
            VNF(
                f"f{i}",
                rng.uniform(0.5, 1.5),
                {f"A{i}": rng.uniform(20, 60), f"B{i}": rng.uniform(20, 60)},
            )
        )
        for j in range(rng.randint(1, 2)):
            chains.append(
                Chain(
                    f"c{i}.{j}", a, c, [f"f{i}"],
                    rng.uniform(0.5, 5.0), rng.uniform(0.0, 1.0),
                )
            )
        if with_links:
            for n1, n2 in ((a, b), (b, c), (a, c)):
                cap = rng.uniform(15, 60)
                links.append(Link(f"{n1}-{n2}", n1, n2, cap))
                links.append(Link(f"{n2}-{n1}", n2, n1, cap))
                routing[(n1, n2)] = {f"{n1}-{n2}": 1.0}
                routing[(n2, n1)] = {f"{n2}-{n1}": 1.0}
    model = NetworkModel(nodes, latency, sites, vnfs, chains, links, routing)
    return model


@settings(max_examples=25, deadline=None)
@given(clustered_model())
def test_clusters_partition_exactly(model):
    plan = partition_chains(model, max_chains=2)
    assert plan.exact
    clusters = {name.split(".")[0] for name in model.chains}
    assert len(plan.partitions) == len(clusters)


@settings(max_examples=20, deadline=None)
@given(clustered_model())
def test_min_latency_equivalence(model):
    mono = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
    farm = SolverFarm(partition_size=2).solve(
        model, LpObjective.MIN_LATENCY
    )
    assert farm.ok == mono.ok
    if not mono.ok:
        return
    assert farm.exact
    assert farm.objective == pytest.approx(mono.objective, rel=1e-5, abs=1e-6)
    for name in model.chains:
        assert farm.solution.routed_fraction(name) == pytest.approx(
            1.0, abs=1e-5
        )
    farm.solution.validate()


@settings(max_examples=20, deadline=None)
@given(clustered_model())
def test_max_throughput_equivalence(model):
    mono = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    farm = SolverFarm(partition_size=2).solve(
        model, LpObjective.MAX_THROUGHPUT
    )
    assert farm.ok and mono.ok
    assert farm.exact
    assert farm.solution.throughput() == pytest.approx(
        mono.solution.throughput(), rel=1e-5, abs=1e-6
    )
    farm.solution.validate()


@settings(max_examples=15, deadline=None)
@given(clustered_model(with_links=True))
def test_min_mlu_equivalence(model):
    mono = solve_chain_routing_lp(model, LpObjective.MIN_MLU)
    farm = SolverFarm(partition_size=2).solve(
        model, LpObjective.MIN_MLU
    )
    assert farm.ok and mono.ok
    assert farm.exact
    # Merged MIN_MLU is the max over partitions; the monolithic beta is
    # the same bottleneck.
    assert farm.objective == pytest.approx(mono.objective, rel=1e-5, abs=1e-6)
    assert farm.solution.max_link_utilization() == pytest.approx(
        mono.solution.max_link_utilization(), rel=1e-5, abs=1e-6
    )


@st.composite
def coupled_workload(draw):
    """One shared VNF deployment and one shared bottleneck link: a
    single coupling group that forced splitting makes inexact."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    num_chains = draw(st.integers(3, 6))
    nodes = ["a", "b"]
    latency = {("a", "b"): rng.uniform(5, 20)}
    sites = [CloudSite("A", "a", 1000.0), CloudSite("B", "b", 1000.0)]
    demands = [rng.uniform(1.0, 6.0) for _ in range(num_chains)]
    vnfs = [VNF("fw", 1.0, {"B": rng.uniform(0.7, 2.0) * sum(demands) * 2})]
    chains = [
        Chain(f"c{i}", "a", "b", ["fw"], demands[i], 0.0)
        for i in range(num_chains)
    ]
    cap = rng.uniform(0.6, 1.5) * sum(demands)
    links = [Link("ab", "a", "b", cap), Link("ba", "b", "a", cap)]
    routing = {("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}}
    return NetworkModel(nodes, latency, sites, vnfs, chains, links, routing)


@settings(max_examples=20, deadline=None)
@given(coupled_workload())
def test_split_solution_feasible_and_bounded(model):
    mono = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    farm = SolverFarm(partition_size=2).solve(
        model, LpObjective.MAX_THROUGHPUT
    )
    assert farm.ok and mono.ok
    # Feasibility is unconditional: shares sum to the original budgets.
    assert farm.solution.violations() == []
    # The farm never carries more than the joint optimum.
    assert (
        farm.solution.throughput()
        <= mono.solution.throughput() * (1 + 1e-6) + TOL
    )
