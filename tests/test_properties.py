"""Property-based tests over randomly generated models.

These encode the core cross-scheme invariants:

- every scheme's carried routing is feasible (capacities, conservation);
- SB-LP is optimal: no scheme beats it on its own objective;
- the DP's carried throughput never exceeds offered demand;
- scale_to_capacity output is always feasible regardless of input.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.baselines import (
    route_anycast,
    route_compute_aware,
    scale_to_capacity,
)
from repro.core.dp import DpConfig, route_chains_dp
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, NetworkModel, VNF

TOL = 1e-5


@st.composite
def random_model(draw) -> NetworkModel:
    """A small random model: 3-5 nodes, 1-3 VNFs, 1-4 chains."""
    num_nodes = draw(st.integers(3, 5))
    nodes = [f"n{i}" for i in range(num_nodes)]
    rng = random.Random(draw(st.integers(0, 10_000)))

    latency = {}
    # Random metric-ish latencies via coordinates (keeps them sane).
    coords = {n: (rng.uniform(0, 50), rng.uniform(0, 50)) for n in nodes}
    for i, n1 in enumerate(nodes):
        for n2 in nodes[i + 1:]:
            (x1, y1), (x2, y2) = coords[n1], coords[n2]
            latency[(n1, n2)] = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5 + 1.0

    sites = [
        CloudSite(f"S{i}", node, rng.uniform(20, 200))
        for i, node in enumerate(nodes)
    ]
    num_vnfs = draw(st.integers(1, 3))
    vnfs = []
    for v in range(num_vnfs):
        deployments = rng.sample(sites, rng.randint(1, len(sites)))
        vnfs.append(
            VNF(
                f"f{v}",
                rng.uniform(0.2, 2.0),
                {s.name: rng.uniform(5, 50) for s in deployments},
            )
        )
    num_chains = draw(st.integers(1, 4))
    chains = []
    for c in range(num_chains):
        ingress, egress = rng.sample(nodes, 2)
        length = rng.randint(1, num_vnfs)
        chain_vnfs = [f"f{v}" for v in sorted(rng.sample(range(num_vnfs), length))]
        chains.append(
            Chain(
                f"c{c}",
                ingress,
                egress,
                chain_vnfs,
                rng.uniform(0.5, 10.0),
                rng.uniform(0.0, 2.0),
            )
        )
    return NetworkModel(nodes, latency, sites, vnfs, chains)


@settings(max_examples=40, deadline=None)
@given(random_model())
def test_dp_solution_always_feasible(model):
    result = route_chains_dp(model)
    assert not result.solution.violations()


@settings(max_examples=40, deadline=None)
@given(random_model())
def test_dp_routed_plus_unrouted_is_one(model):
    result = route_chains_dp(model)
    for name in model.chains:
        routed = result.solution.routed_fraction(name)
        remainder = result.unrouted.get(name, 0.0)
        assert abs(routed + remainder - 1.0) < 1e-6


@settings(max_examples=40, deadline=None)
@given(random_model())
def test_dp_ablations_also_feasible(model):
    for config in (DpConfig.latency_only(), DpConfig.one_hop()):
        result = route_chains_dp(model, config)
        assert not result.solution.violations()


@settings(max_examples=25, deadline=None)
@given(random_model())
def test_lp_max_throughput_dominates_all_schemes(model):
    lp = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    if not lp.ok:
        return
    best = lp.solution.throughput()
    for scheme_solution in (
        route_chains_dp(model).solution,
        scale_to_capacity(route_anycast(model)),
        scale_to_capacity(route_compute_aware(model)),
    ):
        assert scheme_solution.throughput() <= best + TOL * max(1.0, best)


@settings(max_examples=25, deadline=None)
@given(random_model())
def test_lp_min_latency_dominates_when_feasible(model):
    lp = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
    if not lp.ok:
        return
    dp = route_chains_dp(model)
    if not dp.fully_routed:
        return
    assert lp.objective <= dp.solution.total_weighted_latency() + TOL * max(
        1.0, lp.objective
    )


@settings(max_examples=40, deadline=None)
@given(random_model())
def test_scaled_anycast_always_feasible(model):
    carried = scale_to_capacity(route_anycast(model))
    assert not carried.violations()


@settings(max_examples=40, deadline=None)
@given(random_model())
def test_compute_aware_respects_compute(model):
    solution = route_compute_aware(model)
    problems = [
        p for p in solution.violations() if "overloaded" in p
    ]
    assert not problems


@settings(max_examples=40, deadline=None)
@given(random_model())
def test_lp_solution_validates(model):
    lp = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    if lp.ok:
        assert not lp.solution.violations()
