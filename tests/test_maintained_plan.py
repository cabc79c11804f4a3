"""The maintained partition plan: what a chain-set change carries.

Four contracts of ``repro.scale.partition`` / ``repro.scale.farm``:

- a plan built with nothing to carry is the plan the from-nothing
  partitioner built before plans were maintained: same partitions, same
  share floats (``==``), same sub-model digests -- golden values recorded
  at that tree (``python tests/test_maintained_plan.py --write``
  re-records them, on purpose only), and so is every plan maintained
  over a fixed script of chain-set changes (``MAINTAINED``);
- over random remove / add / re-scale / pattern-flip sequences the
  maintained plan stays a valid partitioning whose merged solution is
  feasible, inside the documented gap of the monolithic optimum, and
  independent of any solver state carried with it; the plan's pre-route
  never drifts from the chains it holds;
- a chain whose zero / non-zero demand pattern flipped is not the chain
  the plan holds (the regression of ``compatible_with``);
- another substrate carries nothing, nor does an equal one whose
  columns list their entries in another order (the plan's facts hold
  resource ids, which follow that order).
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lp import LpObjective, clear_matrix_cache, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.federation import GlobalCoordinator
from repro.scale import DEFAULT_GAP_TOLERANCE, SolverFarm, partition_chains
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.pops import PopGridConfig, generate_federation_workload
from tests.test_program_fingerprints import te_replan_model


# -- cold is the from-nothing partitioner ----------------------------------


def federation_region():
    """Region 0 of the ledger's ``federated_replan`` shape at half size,
    as its regional switchboard holds it: intra chains and the segments
    of cross-region ones, in admission order."""
    full, _metros = generate_federation_workload(
        PopGridConfig(num_pops=24, num_metros=3, num_chains=80, seed=7,
                      total_traffic=1300.0)
    )
    chains = list(full.chains.values())
    coordinator = GlobalCoordinator(
        full.copy_with_chains([]), n_regions=3, partition_size=8
    )
    for chain in chains:
        coordinator.submit(chain)
    return coordinator.regionals[0].model


def solver_farm_bench_model():
    """``benchmarks/bench_scale_solver_farm.py``'s 128-chain model."""
    cities = DEFAULT_CITIES[:14]
    config = WorkloadConfig(
        num_chains=128, num_vnfs=10, coverage=0.5, total_traffic=8000.0,
        site_capacity=26000.0, cities=cities, seed=11,
    )
    return generate_workload(config, build_backbone(cities))


#: name -> (model builder, max_chains)
COLD = {
    "te_replan": (te_replan_model, 4),
    "federation_region": (federation_region, 8),
    "solver_farm_bench": (solver_farm_bench_model, 16),
}

#: Recorded at commit ec5e4bd, the last tree whose ``partition_chains``
#: built every plan from nothing.
GOLDEN = {
    "federation_region": {
        "partitions": "24a1a52e1a0992862a93ccb450b1022845722f27ac248b1c6f87ed6d1ab10798",
        "shares": "a8d3a6fa46c7e023cd89ae128911add87e737862a3404f5dbdae07a5c990eca7",
        "submodels": "a9b93a1d6c84cf53ca7dffc06a5550aeeb9e318aca6cb3531907a87d84f760a4",
        "split": 6,
    },
    "solver_farm_bench": {
        "partitions": "4d3005e1fe90f12b57d4dc58ce23f265e95f98b51701d55e6c2ba6c126f70a9b",
        "shares": "a731c3235630cb5088f0f47638ecb4ed247ab839de7745a5c6bb4c984d18f15b",
        "submodels": "66248b6065fe8093fdb3038d5aad802da5b8ae1479537f737fa4735c84ce6df8",
        "split": 8,
    },
    "te_replan": {
        "partitions": "c1e00df2dcb6107979a3f98397fabfa9d98bf80f01b376da4239142df123dc2d",
        "shares": "603c3414ca469ed52b4bbff999811aa7781331d432c58315c00b9439f614b24b",
        "submodels": "5b022df18c60f6bf86338601060db1fd93f7092ff0696a37c9a0e1f7aadf37bb",
        "split": 4,
    },
}


def _sha(value) -> str:
    # ``json`` writes a float as its ``repr``: equal hashes, equal floats.
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def plan_fingerprint(plan, model) -> dict:
    return {
        "partitions": _sha([[p.index, list(p.chains), p.exact] for p in plan.partitions]),
        "shares": _sha([
            [index, sorted(map(list, shares.items()))]
            for index, shares in sorted(plan._shares.items())
        ]),
        "submodels": _sha([
            plan.submodel(model, p.index).digest() for p in plan.partitions
        ]),
        "split": sum(not p.exact for p in plan.partitions),
    }


@pytest.mark.parametrize("name", sorted(COLD))
def test_cold_plan_is_the_from_nothing_plan(name):
    build, max_chains = COLD[name]
    model = build()
    plan = partition_chains(model, max_chains)
    assert plan_fingerprint(plan, model) == GOLDEN[name]
    assert GOLDEN[name]["split"] >= 2  # the pin covers shares and a pre-route


# -- maintained plans over a fixed script ----------------------------------


def _replace(model: NetworkModel, chain: Chain) -> None:
    model.remove_chain(chain.name)
    model.add_chain(chain)


def churn_script(model: NetworkModel) -> list:
    """The fixed chain-set changes a maintained plan is pinned over, in
    order: the first chain out, a middle one out, the first one back
    under a new name, a re-scale, a flipped reverse demand pattern."""
    names = list(model.chains)
    first, middle = model.chains[names[0]], model.chains[names[len(names) // 2]]
    scaled, flip = model.chains[names[1]], model.chains[names[2]]
    return [
        lambda: model.remove_chain(first.name),
        lambda: model.remove_chain(middle.name),
        lambda: model.add_chain(Chain(
            "added", first.ingress, first.egress, first.vnfs,
            first.forward_traffic, first.reverse_traffic,
        )),
        lambda: _replace(model, scaled.scaled(1.25)),
        lambda: _replace(model, Chain(
            flip.name, flip.ingress, flip.egress, flip.vnfs, flip.forward_traffic,
            0.0 if any(flip.reverse_traffic) else 0.5,
        )),
    ]


def federated_churn_round(model: NetworkModel) -> None:
    """One churn round shaped like the ledger's ``federated_replan``
    rounds: two chains out, two in (the shapes of the two removed under
    new names), four re-scaled."""
    names = list(model.chains)
    gone = [model.chains[names[i]] for i in (3, len(names) // 3)]
    for chain in gone:
        model.remove_chain(chain.name)
    for serial, chain in enumerate(gone):
        model.add_chain(Chain(
            f"joined{serial}", chain.ingress, chain.egress, chain.vnfs,
            chain.forward_traffic, chain.reverse_traffic,
        ))
    for i, factor in zip((1, 5, len(names) // 2, -3), (0.8, 1.25, 1.25, 0.8)):
        chain = model.chains[list(model.chains)[i]]
        _replace(model, chain.scaled(factor))


def maintained_fingerprints(name: str) -> list[dict]:
    """The fingerprint of every plan maintained over the script (and, on
    ``federation_region``, the churn round after it)."""
    build, max_chains = COLD[name]
    model = build()
    plan = partition_chains(model, max_chains)
    steps = churn_script(model)
    if name == "federation_region":
        steps.append(lambda: federated_churn_round(model))
    pins = []
    for step in steps:
        step()
        plan = partition_chains(model, max_chains, plan)
        pins.append(plan_fingerprint(plan, model))
    return pins


#: Recorded at commit c1785cd, before the partitioner planned on
#: resource ids: one short digest of each maintained plan's fingerprint.
MAINTAINED = {
    "federation_region": [
        "01e96ab89413236a", "29cf6d2c64ebc7f0", "b547e9e920490aa0",
        "eaa07bb551e814c4", "40225c15d5b3fd95", "3ee5c7ce13d64cfc",
    ],
    "solver_farm_bench": [
        "d103c62bb142e69e", "661409bd0e1ca86c", "77d17592e6facc95",
        "32c0b73c2e3f5eaa", "106e3ec9a0c9c1ea",
    ],
    "te_replan": [
        "4b59f077a66d0a1e", "780ffed9a351d746", "3426a5bbbbda02d5",
        "8076529d047640a6", "b037a52d951dea79",
    ],
}


@pytest.mark.parametrize("name", sorted(COLD))
def test_maintained_plans_are_pinned(name):
    pins = maintained_fingerprints(name)
    assert [_sha(pin)[:16] for pin in pins] == MAINTAINED[name]
    assert all(pin["split"] >= 2 for pin in pins)


# -- random churn ----------------------------------------------------------


def coupled_model(rng: random.Random) -> NetworkModel:
    """A ring of four nodes with a site each, two VNFs on overlapping
    site pairs and one tight-ish link each way round: every chain shares
    something with every other, so ``max_chains`` forces a split.
    Capacities leave the headroom the gap contract of
    ``repro.scale.partition`` asks for."""
    nodes = ["n0", "n1", "n2", "n3"]
    latency = {
        (a, b): rng.uniform(2.0, 20.0) for a in nodes for b in nodes if a < b
    }
    sites = [CloudSite(f"S{i}", node, 400.0) for i, node in enumerate(nodes)]
    vnfs = [
        VNF("fw", 1.0, {"S0": rng.uniform(50, 120), "S1": rng.uniform(50, 120),
                        "S2": rng.uniform(50, 120)}),
        VNF("nat", 0.5, {"S1": rng.uniform(30, 80), "S3": rng.uniform(30, 80)}),
    ]
    links, routing = [], {}
    for i, a in enumerate(nodes):
        b = nodes[(i + 1) % 4]
        links += [
            Link(f"{a}>{b}", a, b, rng.uniform(60.0, 150.0), rng.choice([0.0, 5.0])),
            Link(f"{b}>{a}", b, a, rng.uniform(60.0, 150.0)),
        ]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if a == b:
                continue
            hops = [(nodes[k % 4], nodes[(k + 1) % 4]) for k in range(i, i + (j - i) % 4)]
            routing[(a, b)] = {f"{x}>{y}": 1.0 for x, y in hops}
    return NetworkModel(nodes, latency, sites, vnfs, [], links, routing)


def random_chain(rng: random.Random, name: str) -> Chain:
    vnfs = rng.choice([["fw"], ["nat"], ["fw", "nat"], ["nat", "fw"]])
    ingress, egress = rng.sample(["n0", "n1", "n2", "n3"], 2)
    return Chain(
        name, ingress, egress, vnfs,
        rng.uniform(3.5, 14.0), rng.choice([0.0, rng.uniform(0.5, 3.0)]),
    )


def flipped(chain: Chain, rng: random.Random) -> Chain:
    """The chain with its reverse demand switched on or off."""
    reverse = 0.0 if any(chain.reverse_traffic) else rng.uniform(0.5, 3.0)
    return Chain(
        chain.name, chain.ingress, chain.egress, chain.vnfs,
        chain.forward_traffic, reverse,
    )


def apply_step(model: NetworkModel, rng: random.Random, step: str, serial: int):
    names = sorted(model.chains)
    if step == "add" or len(names) < 3:
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
        return
    name = rng.choice(names)
    chain = model.chains[name]
    model.remove_chain(name)
    if step == "scale":
        model.add_chain(chain.scaled(rng.choice([0.8, 1.25])))
    elif step == "flip":
        model.add_chain(flipped(chain, rng))


def assert_valid_partitioning(plan, model, max_chains):
    seated = [name for part in plan.partitions for name in part.chains]
    assert sorted(seated) == sorted(model.chains)  # each chain exactly once
    assert all(len(part.chains) <= max_chains for part in plan.partitions)
    totals: dict = {}
    for shares in plan._shares.values():
        for resource, share in shares.items():
            totals[resource] = totals.get(resource, 0.0) + share
    assert all(total <= 1 + 1e-12 for total in totals.values())


def assert_pre_route_holds_exactly_the_plan(plan):
    """The residual state of the plan's router is the load of the routes
    it holds, which are those of the plan's chains: nothing a departed or
    re-scaled chain committed is left behind."""
    router = plan._router
    if router is None:
        return
    assert set(router.model.chains) == set(plan._facts)
    assert all(
        router.model.chains[name] == known.chain
        for name, known in plan._facts.items()
    )
    state, sub = router._router.state, router.model.substrate_columns()
    loads, site_loads, _pairs, link_traffic = router.solution._accumulate()
    vnf_load = np.zeros_like(state.vnf_load)
    for (vnf, site), load in loads.items():
        vnf_load[sub.vnf_index[vnf], sub.site_index[site]] = load
    assert np.allclose(state.vnf_load, vnf_load, rtol=0, atol=1e-9)
    assert np.allclose(
        state.site_load,
        [site_loads.get(site, 0.0) for site in sub.site_names], rtol=0, atol=1e-9,
    )
    assert np.allclose(
        state.link_load - sub.link_background,
        [link_traffic.get(link, 0.0) for link in sub.link_names], rtol=0, atol=1e-9,
    )


STEPS = st.lists(
    st.sampled_from(["add", "remove", "scale", "flip"]), min_size=1, max_size=6
)


# Derandomized: the gap of a proportional split is workload-dependent by
# contract.  None of 600 random sequences of this generator ended above
# the documented tolerance, but with demands a seventh larger about 1 in
# 300 does (from nothing as well as maintained), so the examples are
# fixed rather than drawn afresh on every run.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 100_000), steps=STEPS, max_chains=st.sampled_from([3, 4]))
def test_random_churn_keeps_the_plan_sound(seed, steps, max_chains):
    rng = random.Random(seed)
    model = coupled_model(rng)
    for serial in range(rng.randint(4, 7)):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    farm = SolverFarm(partition_size=max_chains)
    assert farm.solve(model).ok
    for serial, step in enumerate(steps, start=100):
        apply_step(model, rng, step, serial)
        # ``resolve`` keeps the plan over a demand-only step (the chain
        # is re-derived at the next chain-set change); ``solve`` re-plans
        # whenever anything changed.
        result = rng.choice([farm.solve, lambda m: farm.resolve(m, [])])(model)
        plan = farm.plan
        assert_valid_partitioning(plan, model, max_chains)
        assert_pre_route_holds_exactly_the_plan(plan)
        assert result.ok and result.solution.violations() == []
        mono = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        carried = result.solution.throughput()
        assert carried <= mono.solution.throughput() * (1 + 1e-6) + 1e-6
        assert carried >= mono.solution.throughput() * (1 - DEFAULT_GAP_TOLERANCE)
        # The plan is data: a farm that holds nothing but this plan --
        # no LP structure, basis, column pool or cached solution -- gets
        # the same out of it.
        clear_matrix_cache()
        fresh = SolverFarm(partition_size=max_chains)
        fresh.plan = plan
        again = fresh.resolve(model, [])
        assert fresh.plan is plan and len(again.solved) == len(plan.partitions)
        assert again.solution.throughput() == pytest.approx(carried, rel=1e-9, abs=1e-9)


def test_an_untouched_seat_keeps_its_chain_list():
    rng = random.Random(5)
    model = coupled_model(rng)
    for serial in range(9):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    before = partition_chains(model, 3)
    assert [p.chains for p in before.partitions] == [
        ("c000", "c003", "c006"), ("c001", "c004", "c007"), ("c002", "c005", "c008"),
    ]
    model.remove_chain("c004")
    model.add_chain(random_chain(rng, "c100"))
    chain = model.chains["c008"]
    model.remove_chain("c008")
    model.add_chain(chain.scaled(2.0))
    after = partition_chains(model, 3, before)
    # the newcomer takes the vacated seat; the re-scaled chain stays put
    assert [p.chains for p in after.partitions] == [
        ("c000", "c003", "c006"), ("c001", "c007", "c100"), ("c002", "c005", "c008"),
    ]
    assert after._facts["c000"] is before._facts["c000"]
    assert after._facts["c008"] is not before._facts["c008"]
    assert after._facts["c008"].resources is before._facts["c008"].resources
    assert after._router is before._router
    # a group that needs another seat count is dealt again from nothing
    for serial in range(101, 104):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    regrown = partition_chains(model, 3, after)
    names = sorted(model.chains)
    assert [p.chains for p in regrown.partitions] == [
        tuple(names[i::4]) for i in range(4)
    ]


def test_a_chain_the_pre_route_could_not_carry_leaves_cleanly():
    """SB-DP carries nothing of ``c2`` (``c0`` and ``c1`` fill the only
    deployment), so the router holds no route to release when it goes."""
    model = NetworkModel(
        nodes=["a", "b"],
        latency={("a", "b"): 1.0},
        sites=[CloudSite("sb", "b", 1000.0)],
        vnfs=[VNF("f", 1.0, {"sb": 20.0})],
        chains=[Chain(f"c{i}", "a", "b", ["f"], 5.0, 0.0) for i in range(3)],
        links=[Link("ab", "a", "b", 100.0), Link("ba", "b", "a", 100.0)],
        routing={("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}},
    )
    before = partition_chains(model, 2)
    assert before._router.solution.routed_fraction("c2") == 0.0
    model.remove_chain("c2")
    model.add_chain(Chain("c3", "a", "b", ["f"], 1.0, 0.0))
    after = partition_chains(model, 2, before)
    assert_pre_route_holds_exactly_the_plan(after)
    assert [p.chains for p in after.partitions] == [("c0", "c3"), ("c1",)]


# -- the demand pattern is part of a chain's identity ----------------------


def one_way_model(reverse_demand: float) -> NetworkModel:
    """Two chains a -> b and two b -> a through one VNF at ``sb``; the
    b -> a pair loads link ``ba`` only when it has demand."""
    return NetworkModel(
        nodes=["a", "b"],
        latency={("a", "b"): 1.0, ("b", "a"): 1.0},
        sites=[CloudSite("sb", "b", 1000.0)],
        vnfs=[VNF("f", 1.0, {"sb": 1000.0})],
        chains=[
            Chain("c1", "a", "b", ["f"], 4.0, 0.0),
            Chain("c2", "a", "b", ["f"], 4.0, 0.0),
            Chain("c3", "b", "a", ["f"], reverse_demand, 0.0),
            Chain("c4", "b", "a", ["f"], reverse_demand, 0.0),
        ],
        links=[Link("ab", "a", "b", 10.0), Link("ba", "b", "a", 10.0)],
        routing={("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}},
    )


def test_a_flipped_demand_pattern_is_not_a_demand_change():
    idle = one_way_model(0.0)
    farm = SolverFarm(partition_size=2)
    assert farm.solve(idle).ok
    assert [p.chains for p in farm.plan.partitions] == [("c1", "c3"), ("c2", "c4")]
    # nobody could load ``ba``, so nobody holds a share of it
    assert all(farm.plan.share(i, ("link", "ba")) == 1.0 for i in (0, 1))

    busy = one_way_model(8.0)
    assert not farm.plan.compatible_with(busy)
    result = farm.resolve(busy, ["c3", "c4"])
    assert result.ok and result.solution.violations() == []
    assert sum(farm.plan.share(i, ("link", "ba")) for i in (0, 1)) == pytest.approx(1.0)
    mono = solve_chain_routing_lp(busy, LpObjective.MAX_THROUGHPUT)
    assert mono.solution.throughput() == pytest.approx(18.0)
    assert result.solution.throughput() <= 18.0 + 1e-6


# -- another substrate carries nothing --------------------------------------


def test_a_substrate_edit_carries_nothing():
    rng = random.Random(11)
    model = coupled_model(rng)
    for serial in range(6):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    before = partition_chains(model, 2)
    model._latency[("n0", "n1")] *= 3.0
    model.invalidate_substrate()
    after = partition_chains(model, 2, before)
    assert after._router is not before._router
    assert not any(
        after._facts[name] is before._facts[name] for name in model.chains
    )
    nothing = partition_chains(model, 2)
    assert plan_fingerprint(after, model) == plan_fingerprint(nothing, model)


def test_a_model_of_another_substrate_carries_nothing():
    rng = random.Random(12)
    model = coupled_model(rng)
    other = coupled_model(rng)  # same names, other latencies and capacities
    for serial in range(6):
        chain = random_chain(rng, f"c{serial:03d}")
        model.add_chain(chain)
        other.add_chain(chain)
    before = partition_chains(model, 2)
    after = partition_chains(other, 2, before)
    assert after._router is not before._router
    nothing = partition_chains(other, 2)
    assert plan_fingerprint(after, other) == plan_fingerprint(nothing, other)


def test_an_equal_substrate_in_another_object_carries_everything():
    rng = random.Random(13)
    model = coupled_model(rng)
    for serial in range(6):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    before = partition_chains(model, 2)
    twin = model.copy_with_chains(model.chains.values())
    twin.add_chain(random_chain(rng, "c100"))
    after = partition_chains(twin, 2, before)
    assert after._router is before._router
    assert all(after._facts[name] is before._facts[name] for name in model.chains)
    assert_pre_route_holds_exactly_the_plan(after)


def test_an_equal_substrate_in_another_order_carries_nothing():
    """A plan's facts hold resource ids, which follow the columns'
    insertion order: an equal substrate listing its links and sites the
    other way round has the same digest but other ids."""
    rng = random.Random(14)
    model = coupled_model(rng)
    for serial in range(6):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    twin = NetworkModel(
        model.nodes, dict(model._latency), reversed(model.sites.values()),
        model.vnfs.values(), model.chains.values(), reversed(model.links.values()),
        model.routing,
    )
    assert twin.substrate_digest() == model.substrate_digest()
    assert twin.substrate_columns().order != model.substrate_columns().order
    before = partition_chains(model, 2)
    after = partition_chains(twin, 2, before)
    assert after._router is not before._router
    assert not any(after._facts[name] is before._facts[name] for name in twin.chains)
    nothing = partition_chains(twin, 2)
    assert plan_fingerprint(after, twin) == plan_fingerprint(nothing, twin)


if __name__ == "__main__":  # pragma: no cover - re-recording tool
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_maintained_plan.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    for name in sorted(COLD):
        build, max_chains = COLD[name]
        model = build()
        pin = plan_fingerprint(partition_chains(model, max_chains), model)
        print(f'    "{name}": {json.dumps(pin, indent=8)},')
    for name in sorted(COLD):
        pins = [_sha(pin)[:16] for pin in maintained_fingerprints(name)]
        print(f'    "{name}": {json.dumps(pins)},')
