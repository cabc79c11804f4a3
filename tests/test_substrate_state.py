"""Substrate-lifetime solver state: what is cached with a substrate must
be invisible in every result and must die with the substrate.

Four contracts:

- the five digests are byte-identical to hashing the whole document from
  scratch (golden values recorded before the substrate JSON was cached,
  plus a from-scratch reference kept here);
- planning on warm substrate caches gives exactly the cold result;
- ``invalidate_substrate()`` is the one invalidation point: after a
  substrate edit nothing derived from the old substrate is reachable
  from the model or the farm, and a clone taken earlier is unaffected;
- ``RoutingSolution.violations()`` reports what the multi-pass
  implementation it replaced reported, in the same order.
"""

import hashlib
import json
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import GlobalSwitchboard, fail_link, restore_link
from repro.core.dp import route_chains_dp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.core.routes import RoutingSolution
from repro.dataplane import DataPlane
from repro.scale import SolverFarm, partition_chains
from repro.topology.backbone import build_backbone
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.pops import PopGridConfig, generate_federation_workload
from repro.topology.workload import WorkloadConfig, generate_workload


def backbone_model() -> NetworkModel:
    cities = DEFAULT_CITIES[:10]
    config = WorkloadConfig(num_chains=12, num_vnfs=6, seed=3, cities=cities)
    return generate_workload(config, build_backbone(cities))


def pop_grid_model() -> NetworkModel:
    model, _metro_of = generate_federation_workload(
        PopGridConfig(num_pops=12, num_metros=2, num_chains=40, seed=5)
    )
    return model


def shadowed_model() -> NetworkModel:
    """Hand-built; site ``b`` sits on node ``c`` and shadows node ``b``."""
    nodes = ["a", "b", "c", "d"]
    latency = {
        ("a", "b"): 4.0, ("a", "c"): 9.0, ("b", "c"): 3.0,
        ("b", "d"): 7.0, ("c", "d"): 2.0, ("d", "a"): 11.0,
    }
    sites = [
        CloudSite("b", "c", 60.0), CloudSite("S", "b", 40.0),
        CloudSite("T", "d", 0.0),
    ]
    vnfs = [
        VNF("fw", 1.0, {"b": 30.0, "S": 20.0}),
        VNF("nat", 0.5, {"S": 25.0, "T": 0.0, "b": 10.0}),
    ]
    links = [
        Link("ab", "a", "b", 50.0, 5.0), Link("bc", "b", "c", 40.0),
        Link("cd", "c", "d", 30.0, 2.5), Link("da", "d", "a", 20.0),
    ]
    routing = {
        ("a", "b"): {"ab": 1.0}, ("b", "c"): {"bc": 1.0},
        ("a", "c"): {"ab": 1.0, "bc": 1.0}, ("c", "d"): {"cd": 1.0},
        ("b", "d"): {"bc": 0.5, "cd": 0.5}, ("d", "a"): {"da": 1.0},
    }
    chains = [
        Chain("x", "a", "d", ["fw", "nat"], [4.0, 3.0, 2.0], [1.0, 0.0, 0.5]),
        Chain("y", "b", "a", ["nat"], 2.0, 0.0),
        Chain("z", "a", "c", ["fw"], 0.0, 1.5),
    ]
    return NetworkModel(
        nodes, latency, sites, vnfs, chains, links, routing, mlu_limit=0.9
    )


def spur_model() -> NetworkModel:
    """Six coupled chains a -> b, and a spur node ``c`` none of them can
    reach: failing b <-> c edits the substrate without making any route
    infinitely long."""
    return NetworkModel(
        nodes=["a", "b", "c"],
        latency={("a", "b"): 10.0, ("b", "c"): 5.0, ("a", "c"): 12.0},
        sites=[CloudSite("A", "a", 1000.0), CloudSite("B", "b", 1000.0)],
        vnfs=[VNF("fw", 1.0, {"A": 60.0, "B": 100.0})],
        chains=[
            Chain(f"c{i}", "a", "b", ["fw"], float(i + 1), 0.5) for i in range(6)
        ],
        links=[Link("ab", "a", "b", 100.0), Link("ba", "b", "a", 100.0)],
        routing={("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}},
    )


BUILDERS = {
    "backbone": backbone_model,
    "pop_grid": pop_grid_model,
    "shadowed": shadowed_model,
}

#: Recorded with the five digest methods as they stood before the
#: substrate document was encoded once (commit c0b0f0b) -- but for
#: ``structure_digest``, re-recorded when capacity magnitudes left the
#: LP structure key (they are right-hand side, refreshed per solve).
GOLDEN = {
    "backbone": {
        "digest": "741ae4b725a20d4a01e57926c6eb1b647433a34532ec53173ddac9f3f1893da9",
        "digest_subset": "ce089c3d4ac6f0a19f24b2d78fe3161a16427be65a4c2eef2ebd6bdaed9a11f4",
        "substrate_digest": "6ca099d3821bb61242310ab09fbe8f077b92cd5bcb3b9345cea53d42ca7d5980",
        "structure_digest": "2e1b04aa7f193253d1a8b3dc94b0831f285e290233fa024a0a5a355bf24545f3",
        "capacity_structure_digest": "272672238bbf2b3c2d98ad1ad992ceedccac78e57986b61ccae68de6938ec48a",
    },
    "pop_grid": {
        "digest": "6ee93ac57ca580844a4569490a05d13b046490fea2519394ac817cf1d19f222e",
        "digest_subset": "8ae923b9e1f9b311e047bcce217d4c06772599541a3fcaef482ccc637ba3269f",
        "substrate_digest": "c05dcc3a4c34d2d8097577f98f0198c78455361e02e1216379be3e79ea89eb6b",
        "structure_digest": "0b6a5d39d515a32e7294ac3021859a4e3b251a180cd7c657dac80f8073539773",
        "capacity_structure_digest": "97e18434a30cf01156fa925144b51db4d46fa94fdcb8c6d58000913633a42fc2",
    },
    "shadowed": {
        "digest": "5df3cdb87e13f905e2589092808b747892e416fda3ab1eb2ee7435ecd4c97ee6",
        "digest_subset": "0be658ac771ca2ab77de6c95b76ac7c9f741178962e787588d80cd9d957531f6",
        "substrate_digest": "f246fc4d1673cb74019ea2fb8cae4676f909d2409cbfd912b1c30e2e8bdee513",
        "structure_digest": "3350a82d9ad60b6f8a17164045430f06e9e118b4bd088a2eb2600df2b803d955",
        "capacity_structure_digest": "b140c67892085fb819a4367273db5070201a1ba11769f18d4e65017716ecdfae",
    },
}


def digests(model: NetworkModel) -> dict[str, str]:
    subset = sorted(model.chains)[::2]
    return {
        "digest": model.digest(),
        "digest_subset": model.digest(chains=subset),
        "substrate_digest": model.substrate_digest(),
        "structure_digest": model.structure_digest(),
        "capacity_structure_digest": model.capacity_structure_digest(),
    }


def failable_pairs(model: NetworkModel) -> list[tuple[str, str]]:
    """Latency entries ``fail_link`` accepts by node name."""
    return sorted(
        (a, b) for (a, b) in model._latency
        if a != b and not {a, b} & set(model.sites)
    )


# -- the from-scratch reference ------------------------------------------


def _sha(document: dict) -> str:
    payload = json.dumps(document, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _substrate(m: NetworkModel) -> dict:
    return {
        "nodes": sorted(m.nodes),
        "latency": sorted((a, b, d) for (a, b), d in m._latency.items()),
        "sites": sorted((s.name, s.node, s.capacity) for s in m.sites.values()),
        "vnfs": sorted(
            (v.name, v.load_per_unit, sorted(v.site_capacity.items()))
            for v in m.vnfs.values()
        ),
        "links": sorted(
            (k.name, k.src, k.dst, k.bandwidth, k.background)
            for k in m.links.values()
        ),
        "routing": sorted(
            (a, b, sorted(f.items())) for (a, b), f in m.routing.items()
        ),
        "mlu_limit": m.mlu_limit,
    }


def _chains(m: NetworkModel, names) -> list:
    return [
        (c.name, c.ingress, c.egress, list(c.vnfs),
         list(c.forward_traffic), list(c.reverse_traffic))
        for c in (m.chains[n] for n in sorted(names))
    ]


def _chain_structure(m: NetworkModel) -> list:
    return [
        (c.name, c.ingress, c.egress, list(c.vnfs),
         [w > 0 for w in c.forward_traffic], [v > 0 for v in c.reverse_traffic])
        for c in m.chains.values()
    ]


def reference_digests(m: NetworkModel) -> dict[str, str]:
    sub = _substrate(m)
    flags = {
        "sites": sorted((s.name, s.node, s.capacity > 0) for s in m.sites.values()),
        "vnfs": sorted(
            (v.name, v.load_per_unit, sorted(v.site_capacity))
            for v in m.vnfs.values()
        ),
    }
    structure = {"chain_structure": _chain_structure(m)}
    # the LP structure key leaves every capacity magnitude out
    bare = {
        "sites": sorted((s.name, s.node) for s in m.sites.values()),
        "vnfs": flags["vnfs"],
        "links": sorted((k.name, k.src, k.dst) for k in m.links.values()),
    }
    return {
        "digest": _sha({**sub, "chains": _chains(m, m.chains)}),
        "digest_subset": _sha(
            {**sub, "chains": _chains(m, sorted(m.chains)[::2])}
        ),
        "substrate_digest": _sha(sub),
        "structure_digest": _sha({**sub, **bare, **structure}),
        "capacity_structure_digest": _sha({**sub, **flags, **structure}),
    }


class TestDigestByteIdentity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_golden(self, name):
        model = BUILDERS[name]()
        assert digests(model) == GOLDEN[name]
        # warm caches, a clone and a rebuilt model all agree
        assert digests(model) == GOLDEN[name]
        assert digests(model.copy_with_chains(model.chains.values())) == GOLDEN[name]

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILDERS)),
        seed=st.integers(0, 2**16),
        warm=st.booleans(),
    )
    def test_equals_from_scratch_reference(self, name, seed, warm):
        rng = random.Random(seed)
        model = BUILDERS[name]()
        if warm:
            digests(model)
        # a random chain subset with random demands, on the model itself
        names = sorted(model.chains)
        for victim in rng.sample(names, rng.randint(0, len(names) - 2)):
            model.remove_chain(victim)
        for kept in list(model.chains):
            chain = model.chains[kept]
            model.remove_chain(kept)
            model.add_chain(chain.scaled(rng.choice([0.0, 0.5, 1.0, 3.0])))
        assert digests(model) == reference_digests(model)

        clone = model.copy_with_chains(list(model.chains.values())[::-1])
        assert digests(clone) == reference_digests(clone)

        plan = partition_chains(model, max_chains=2)
        for part in plan.partitions:
            sub = plan.submodel(model, part.index)
            assert digests(sub) == reference_digests(sub)
            assert digests(plan.submodel(model, part.index)) == digests(sub)

        gs = GlobalSwitchboard(model, DataPlane(random.Random(1)))
        a, b = rng.choice(failable_pairs(model))
        before = digests(model)
        fail_link(gs, a, b)
        assert digests(model) == reference_digests(model)
        assert digests(model)["substrate_digest"] != before["substrate_digest"]
        restore_link(gs, a, b)
        assert digests(model) == reference_digests(model) == before


# -- warm equals cold ------------------------------------------------------


def _plan_facts(plan):
    return (
        [(p.index, p.chains, p.exact) for p in plan.partitions],
        {name: known.structure for name, known in plan._facts.items()},
        plan._shares,
    )


def _stage_flows(model, solution):
    return {
        (name, z): solution.stage_flows(name, z)
        for name, chain in model.chains.items()
        for z in range(1, chain.num_stages + 1)
    }


class TestWarmEqualsCold:
    @pytest.mark.parametrize("name", ["backbone", "pop_grid"])
    def test_partition_and_dp(self, name):
        warm = BUILDERS[name]()
        for _ in range(2):  # fill every substrate-lifetime cache
            partition_chains(warm, max_chains=4)
            route_chains_dp(warm)
            digests(warm)
        cold = BUILDERS[name]()
        warm_plan = partition_chains(warm, max_chains=4)
        cold_plan = partition_chains(cold, max_chains=4)
        assert not cold_plan.exact
        # ``==`` on the share floats, not approx
        assert _plan_facts(warm_plan) == _plan_facts(cold_plan)
        cold = BUILDERS[name]()
        assert _stage_flows(warm, route_chains_dp(warm).solution) == _stage_flows(
            cold, route_chains_dp(cold).solution
        )
        for part in cold_plan.partitions:
            assert digests(warm_plan.submodel(warm, part.index)) == digests(
                cold_plan.submodel(cold, part.index)
            )


def _substrate_state(model: NetworkModel) -> list:
    """Every object that lives as long as the substrate does."""
    sub = model._substrate_columns
    state = [
        sub, model._substrate_json, model._structure_json, model._substrate_digest
    ]
    if sub is not None:
        state += [
            *sub._transitions.values(), sub.dp_trail
        ]
    return [s for s in state if s is not None]


class TestCacheDiesWithSubstrate:
    def test_resolve_after_fail_link_rebuilds_everything(self):
        model = spur_model()
        farm = SolverFarm(partition_size=2)
        first = farm.solve(model)
        assert first.ok and not first.exact
        route_chains_dp(model)  # the farm routes incrementally: no trail
        old_plan = farm.plan
        old_templates = list(old_plan._templates.values())
        assert len(old_templates) == 3  # every partition is a split one
        # columns, encoded JSON with its capacity-free twin, digest, the
        # two stage transitions (each with the DP tables and the candidate
        # links of both directions), and the SB-DP trail
        assert len(_substrate_state(model)) == 7
        old = _substrate_state(model) + old_templates + [
            s for t in old_templates for s in _substrate_state(t)
        ]

        gs = GlobalSwitchboard(model, DataPlane(random.Random(1)))
        fail_link(gs, "b", "c")
        assert _substrate_state(model) == []
        second = farm.resolve(model, [])
        assert second.ok and farm.plan is not old_plan
        assert second.objective == first.objective
        route_chains_dp(model)
        live = _substrate_state(model) + list(farm.plan._templates.values()) + [
            s for t in farm.plan._templates.values() for s in _substrate_state(t)
        ]
        assert len(live) == len(old)
        assert not {id(o) for o in old} & {id(o) for o in live}

    def test_clone_keeps_the_old_substrate(self):
        model = pop_grid_model()
        a, b = failable_pairs(model)[0]
        delay = model.latency(a, b)
        route_chains_dp(model)  # columns built, shared with the clone
        clone = model.copy_with_chains(model.chains.values())
        before = digests(clone)
        gs = GlobalSwitchboard(model, DataPlane(random.Random(1)))
        fail_link(gs, a, b)
        assert model.latency(a, b) == float("inf")
        assert clone.latency(a, b) == delay
        assert clone.substrate_columns().latency[
            clone.substrate_columns().node_index[a],
            clone.substrate_columns().node_index[b],
        ] == delay
        assert digests(clone) == before == reference_digests(clone)
        assert model.digest() != clone.digest()

    def test_clone_skips_substrate_validation_but_not_chain_validation(self):
        model = shadowed_model()
        with pytest.raises(Exception, match="unknown VNF"):
            model.copy_with_chains([Chain("bad", "a", "d", ["ghost"])])


# -- violations(): one pass, same report -----------------------------------


def reference_violations(solution: RoutingSolution, tol: float = 1e-6) -> list[str]:
    """The multi-pass implementation ``violations()`` replaced."""
    model = solution.model
    problems: list[str] = []
    for name, chain in model.chains.items():
        problems.extend(solution._check_chain(name, chain))

    def vnf_site_loads():
        loads = defaultdict(float)
        for flow in solution.flows():
            c = model.chains[flow.chain]
            demand = c.stage_traffic(flow.stage) * flow.fraction
            if flow.stage < c.num_stages:
                vnf = c.vnf_at(flow.stage)
                loads[(vnf, flow.dst)] += model.vnfs[vnf].load_per_unit * demand
            if flow.stage > 1:
                vnf = c.vnf_at(flow.stage - 1)
                loads[(vnf, flow.src)] += model.vnfs[vnf].load_per_unit * demand
        return dict(loads)

    site_loads = defaultdict(float)
    for (_vnf, site), load in vnf_site_loads().items():
        site_loads[site] += load
    for site_name, load in site_loads.items():
        site = model.sites.get(site_name)
        if site is None:
            problems.append(f"load on unknown site {site_name!r}")
        elif load > site.capacity + tol:
            problems.append(
                f"site {site_name!r} overloaded: {load:.6g} > {site.capacity:.6g}"
            )
    for (vnf_name, site_name), load in vnf_site_loads().items():
        cap = model.vnfs[vnf_name].site_capacity.get(site_name)
        if cap is None:
            problems.append(
                f"VNF {vnf_name!r} routed at non-deployment site {site_name!r}"
            )
        elif load > cap + tol:
            problems.append(
                f"VNF {vnf_name!r} at {site_name!r} overloaded: "
                f"{load:.6g} > {cap:.6g}"
            )
    if model.links:
        traffic = defaultdict(float)
        for flow in solution.flows():
            c = model.chains[flow.chain]
            fwd = c.forward_traffic[flow.stage - 1] * flow.fraction
            rev = c.reverse_traffic[flow.stage - 1] * flow.fraction
            src = model.endpoint_node(flow.src)
            dst = model.endpoint_node(flow.dst)
            if fwd > 0:
                traffic[(src, dst)] += fwd
            if rev > 0:
                traffic[(dst, src)] += rev
        per_link = defaultdict(float)
        for (n1, n2), volume in traffic.items():
            for link_name, frac in model.links_between(n1, n2).items():
                per_link[link_name] += volume * frac
        for link_name, link in model.links.items():
            util = (link.background + per_link.get(link_name, 0.0)) / link.bandwidth
            if util > model.mlu_limit + tol:
                problems.append(
                    f"link {link_name!r} exceeds MLU budget: "
                    f"{util:.6g} > {model.mlu_limit:.6g}"
                )
    return problems


class TestViolationsOnePass:
    def test_planted_overload_of_each_kind(self):
        model = shadowed_model()
        model.add_chain(Chain("big", "a", "d", ["fw", "nat"], 30.0, 6.0))
        solution = RoutingSolution(model)
        # x: conservation broken at S, an invalid source, over-routed
        solution.add_path("x", ["a", "b", "S", "d"], 0.7)
        solution.add_path("x", ["a", "S", "b", "d"], 0.4)
        solution.add_flow("x", 2, "T", "S", 0.2)
        # y: nat at its zero-capacity deployment, z: fw off-deployment
        solution.add_path("y", ["b", "T", "a"], 1.0)
        solution.add_flow("z", 1, "a", "T", 1.0)
        # big: overloads site b, fw@b, nat@b and the links under a->c->d
        solution.add_path("big", ["a", "b", "b", "d"], 1.0)
        problems = solution.violations()
        assert problems == reference_violations(solution)
        for needle in (
            "invalid source", "routes 1.1", "flow conservation",
            "site 'b' overloaded", "VNF 'fw' at 'b' overloaded",
            "non-deployment site 'T'", "VNF 'nat' at 'T' overloaded",
            "exceeds MLU budget",
        ):
            assert any(needle in p for p in problems), needle

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_solver_output_and_accounting_agree(self, name):
        model = BUILDERS[name]()
        solution = route_chains_dp(model).solution
        assert solution.violations() == reference_violations(solution) == []
        loads = solution.vnf_site_loads()
        sites = defaultdict(float)
        for (_vnf, site), load in loads.items():
            sites[site] += load
        assert solution.site_loads() == dict(sites)
        per_link = defaultdict(float)
        for (n1, n2), volume in solution.pair_traffic().items():
            for link, frac in model.links_between(n1, n2).items():
                per_link[link] += volume * frac
        assert solution.link_traffic() == dict(per_link)
