"""Equivalence properties for the vectorized hot paths.

Each vectorized implementation keeps its pre-vectorization scalar
twin in the tree as ground truth:

- ``solve_chain_routing_lp`` (the columnar blocks of
  ``repro.core.formulation``) vs. ``tests/reference/lp_scalar.py``
  (its per-variable row generator);
- ``plan_cloud_capacity`` vs. ``plan_cloud_capacity_reference`` and
  ``plan_vnf_placement`` vs. ``plan_vnf_placement_reference``, over the
  same two assemblies;
- ``route_chains_dp`` vs. ``tests/reference/dp_scalar.py``, the
  scalar stage recurrence;
- ``E2ETestbed.evaluate`` (numpy water-filling) vs.
  ``tests/reference/e2e_scalar.py`` (progressive filling).

The matrix comparisons are at the 1e-9 level (in practice exact: the
columnar assembly reproduces the scalar coefficient arithmetic, not
just its solution), so any drift in either path trips these tests
before it can silently change solver behaviour.  The cache round-trip
tests pin the reuse/invalidation contract of the module-global
constraint-matrix cache.
"""

import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import capacity as capacity_mod
from repro.core import dp as dp_mod
from repro.core import lp as lp_mod
from repro.core.capacity import plan_cloud_capacity, plan_vnf_placement
from repro.core.dp import DpConfig, IncrementalDpRouter, route_chains_dp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    matrix_cache_stats,
    solve_chain_routing_lp,
)
from repro.dataplane.e2e import E2ERoute, E2ETestbed, VnfInstanceSpec
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES
from tests.reference.capacity_scalar import (
    plan_cloud_capacity_reference,
    plan_vnf_placement_reference,
    scalar_cloud_program,
    scalar_placement_program,
)
from tests.reference.dp_scalar import ScalarDpRouter, route_chains_dp_reference
from tests.reference.e2e_scalar import evaluate_reference
from tests.reference.lp_scalar import (
    scalar_program,
    solve_chain_routing_lp_reference,
)
from tests.test_program_fingerprints import program_matrix

TOL = 1e-9


def make_model(seed=3, num_chains=24, cities=8):
    names = DEFAULT_CITIES[:cities]
    config = WorkloadConfig(
        num_chains=num_chains,
        num_vnfs=6,
        coverage=0.6,
        total_traffic=4000.0,
        site_capacity=9000.0,
        cities=names,
        seed=seed,
    )
    return generate_workload(config, build_backbone(names))


def dense(matrix):
    return np.asarray(matrix.todense())


def matrices(program, data_ub):
    """``(A_ub, A_eq)``: the rows of ``program``'s one ``[A_ub; A_eq]``."""
    both = program_matrix(program, data_ub).tocsr()
    return both[: len(program.b_ub)], both[len(program.b_ub):]


class TestLpMatrixEquivalence:
    """Columnar COO assembly == scalar per-variable assembly."""

    @pytest.mark.parametrize("objective", list(LpObjective))
    def test_matrices_match(self, objective):
        model = make_model()
        ch = model.chain_columns()
        structure = lp_mod._structure_for(model, objective, None)
        a_ub, a_eq = matrices(
            structure,
            structure.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev)
        )
        cost = lp_mod._cost_vector(structure, ch, objective)

        program = scalar_program(model, objective, True, 1e-6)
        assert structure.n_total == program.n_total
        assert np.max(np.abs(dense(a_ub) - dense(program.a_ub))) <= TOL
        b_ub = structure.bounds(model.substrate_columns())
        assert np.max(np.abs(b_ub - program.b_ub)) <= TOL
        assert np.max(np.abs(dense(a_eq) - dense(program.a_eq))) <= TOL
        assert np.max(np.abs(structure.b_eq - program.b_eq)) <= TOL
        assert np.max(np.abs(cost - program.cost)) <= TOL

    @pytest.mark.parametrize(
        "objective", [LpObjective.MIN_LATENCY, LpObjective.MAX_THROUGHPUT]
    )
    def test_solutions_match(self, objective):
        model = make_model()
        fast = solve_chain_routing_lp(model, objective)
        slow = solve_chain_routing_lp_reference(model, objective)
        assert fast.ok and slow.ok
        # Degenerate optima may differ per-variable; the objective is
        # the contract.
        assert fast.solution.throughput() == pytest.approx(
            slow.solution.throughput(), abs=1e-6
        )


class TestCapacityMatrixEquivalence:
    def test_matrices_match(self):
        model = make_model()
        budget = 50000.0
        structure = capacity_mod._CloudProgram(model)
        data, b_ub = structure.refreshed(model, budget)
        a_ub, a_eq = matrices(structure, data)
        cost = np.zeros(structure.n_total)
        cost[structure.alpha_index] = -1.0

        program = scalar_cloud_program(model, budget)
        assert structure.n_total == program.n_total
        assert structure.alpha_index == program.n_total - 1
        assert np.max(np.abs(dense(a_ub) - dense(program.a_ub))) <= TOL
        assert np.max(np.abs(b_ub - program.b_ub)) <= TOL
        assert np.max(np.abs(dense(a_eq) - dense(program.a_eq))) <= TOL
        assert np.max(np.abs(np.asarray(program.b_eq))) <= TOL
        assert np.max(np.abs(cost - program.cost)) <= TOL

    def test_alpha_matches_reference(self):
        model = make_model()
        fast = plan_cloud_capacity(model, 50000.0)
        slow = plan_cloud_capacity_reference(model, 50000.0)
        assert fast.alpha == pytest.approx(slow.alpha, abs=1e-6)


@st.composite
def small_models(draw):
    """A few nodes, a site per node (named out of sorted order), VNFs on
    random site subsets, one or two links per ordered node pair, chains
    of 0-3 VNFs with sometimes-zero reverse demand."""
    rng = random.Random(draw(st.integers(0, 1_000_000)))
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 4)))]
    latency = {
        (a, b): rng.uniform(1.0, 40.0) for a in nodes for b in nodes if a != b
    }
    sites = [
        CloudSite(f"S{(7 * i) % 10}-{node}", node, rng.choice([0.0, 50.0, 200.0]))
        for i, node in enumerate(nodes)
    ]
    rng.shuffle(sites)
    vnfs = []
    for i in range(draw(st.integers(1, 3))):
        hosts = rng.sample(sites, rng.randint(1, len(sites)))
        vnfs.append(VNF(
            f"f{(3 * i) % 4}", rng.uniform(0.5, 2.0),
            {s.name: rng.uniform(5.0, 80.0) for s in hosts},
        ))
    links, routing = [], {}
    for a in nodes:
        for b in nodes:
            if a == b or rng.random() < 0.2:
                continue
            names = [f"{b}>{a}#{k}" for k in range(rng.randint(1, 2))]
            for name in names:
                links.append(Link(
                    name, a, b, rng.uniform(20.0, 200.0), rng.choice([0.0, 30.0])
                ))
            routing[(a, b)] = {name: 1.0 / len(names) for name in names}
    chains = []
    for i in range(draw(st.integers(1, 4))):
        picked = rng.sample(vnfs, rng.randint(0, len(vnfs)))
        chains.append(Chain(
            f"c{i}", rng.choice(nodes), rng.choice(nodes),
            [v.name for v in picked],
            rng.uniform(0.5, 6.0), rng.choice([0.0, rng.uniform(0.1, 2.0)]),
        ))
    return NetworkModel(
        nodes, latency, sites, vnfs, chains, links, routing,
        mlu_limit=rng.choice([0.6, 1.0]),
    )


def assert_same_program(a_ub, b_ub, a_eq, b_eq, cost, program):
    for ours, theirs in (
        (dense(a_ub), dense(program.a_ub)),
        (dense(a_eq), dense(program.a_eq)),
        (b_ub, program.b_ub),
        (b_eq, program.b_eq),
        (cost, program.cost),
    ):
        assert ours.shape == theirs.shape
        assert ours.size == 0 or np.max(np.abs(ours - theirs)) <= TOL


class TestGeneratedModelEquivalence:
    """Columnar blocks == scalar row generator, on generated models."""

    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.sampled_from(list(LpObjective)))
    def test_routing_program(self, model, objective):
        ch = model.chain_columns()
        structure = lp_mod._RoutingProgram(model, objective)
        a_ub, a_eq = matrices(
            structure,
            structure.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev)
        )
        assert_same_program(
            a_ub, structure.bounds(model.substrate_columns()), a_eq,
            structure.b_eq,
            lp_mod._cost_vector(structure, ch, objective),
            scalar_program(model, objective, True, 1e-6),
        )

    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.sampled_from([0.0, 25.0]))
    def test_cloud_capacity_program(self, model, budget):
        structure = capacity_mod._CloudProgram(model)
        data, b_ub = structure.refreshed(model, budget)
        a_ub, a_eq = matrices(structure, data)
        cost = np.zeros(structure.n_total)
        cost[structure.alpha_index] = -1.0
        assert_same_program(
            a_ub, b_ub, a_eq, structure.b_eq, cost,
            scalar_cloud_program(model, budget),
        )

    @settings(max_examples=25, deadline=None)
    @given(small_models(), st.integers(0, 2), st.sampled_from([10.0, 60.0]))
    def test_placement_program_and_plan(self, model, quota, capacity):
        quotas = {name: quota for name in list(model.vnfs)[:2]}
        fast = plan_vnf_placement(model, quotas, capacity)
        slow = plan_vnf_placement_reference(model, quotas, capacity)
        assert fast.status == slow.status
        assert fast.new_sites == slow.new_sites
        if fast.solution is not None:
            assert fast.objective == pytest.approx(
                slow.objective, rel=1e-9, abs=1e-9
            )

        extended, candidates = capacity_mod._extended_catalog(
            model, quotas, capacity
        )
        ours = capacity_mod._placement_program(extended, candidates, quotas)
        theirs = scalar_placement_program(
            extended, candidates, quotas
        )
        assert ours.quota_first == theirs.quota_first
        assert ours.w_index == theirs.w_index
        assert_same_program(
            ours.a_ub, ours.b_ub, ours.a_eq, ours.b_eq, ours.cost, theirs
        )


class TestDpVectorizedEquivalence:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_routes_identical(self, seed):
        """Vectorized DP reproduces the scalar routes exactly.

        Not approximately: the vectorized recurrence preserves the
        scalar accumulation order and argmin tie-breaking, so the
        chosen paths (and hence flows) must be identical.
        """
        model_v = make_model(seed=seed)
        model_s = make_model(seed=seed)
        vec = route_chains_dp(model_v, DpConfig())
        ref, oracle = route_chains_dp_reference(model_s, DpConfig())
        assert oracle.costs > 0
        assert vec.unrouted == ref.unrouted
        for name, chain in model_v.chains.items():
            for z in range(1, chain.num_stages + 1):
                assert vec.solution.stage_flows(name, z) == ref.solution.stage_flows(name, z)


def dp_model(seed, n_nodes=4, n_vnfs=2, n_chains=4, with_routing=True):
    """A small model built to make SB-DP work for its routes: capacities
    tight enough that a chain needs several passes and may stay partly
    unrouted, a VNF with zero capacity at a site, a site with none at
    all, and per-stage demands with the reverse (or both directions)
    zero on some stages."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n_nodes)]
    latency = {
        (a, b): rng.uniform(1.0, 40.0) for a in nodes for b in nodes if a != b
    }
    sites = [
        CloudSite(f"S{i}", node, rng.choice([0.0, 6.0, 30.0, 400.0]))
        for i, node in enumerate(nodes)
    ]
    vnfs = []
    for i in range(n_vnfs):
        hosts = rng.sample(sites, rng.randint(1, len(sites)))
        vnfs.append(VNF(
            f"f{i}", rng.uniform(0.5, 2.0),
            {s.name: rng.choice([0.0, 3.0, 8.0, 25.0, 300.0]) for s in hosts},
        ))
    links, routing = [], {}
    if with_routing:
        for a in nodes:
            for b in nodes:
                if a == b or rng.random() < 0.15:
                    continue
                names = [f"{a}>{b}#{k}" for k in range(rng.randint(1, 3))]
                for name in names:
                    bandwidth = rng.choice([4.0, 15.0, 60.0, 500.0])
                    links.append(Link(
                        name, a, b, bandwidth,
                        bandwidth * rng.choice([0.0, 0.0, 0.3, 0.55]),
                    ))
                routing[(a, b)] = {name: 1.0 / len(names) for name in names}
    chains = []
    for i in range(n_chains):
        picked = [v.name for v in rng.sample(vnfs, rng.randint(0, len(vnfs)))]
        stages = len(picked) + 1
        chains.append(Chain(
            f"c{i}", rng.choice(nodes), rng.choice(nodes), picked,
            [rng.choice([0.0, 1.0, 4.0, 9.0]) for _ in range(stages)],
            [rng.choice([0.0, 0.0, 0.5, 3.0]) for _ in range(stages)],
        ))
    return NetworkModel(
        nodes, latency, sites, vnfs, chains, links, routing,
        mlu_limit=rng.choice([0.6, 1.0]),
    )


dp_models = st.builds(
    dp_model,
    st.integers(0, 1_000_000),
    n_nodes=st.integers(3, 5),
    n_vnfs=st.integers(1, 3),
    n_chains=st.integers(1, 5),
    with_routing=st.booleans(),
)


class TestDpBatchedSearchEquivalence:
    """The one-penalty-pass search == the scalar Equation 8 recurrence,
    with ``==`` on everything a caller can see."""

    CONFIGS = [
        DpConfig(),
        DpConfig.latency_only(),
        DpConfig(max_paths_per_chain=3),
        # ONEHOP: the same stage matrices, chosen row by row from the
        # site just picked (a search that read the wrong row differs).
        DpConfig.one_hop(),
    ]

    @settings(max_examples=120, deadline=None)
    @given(dp_models, st.sampled_from(CONFIGS))
    def test_same_flows_remainders_and_search_count(self, model, config):
        vec, router = with_router(model, config)
        ref, oracle = route_chains_dp_reference(model, config)
        assert oracle.costs > 0  # the oracle searched the scalar way
        assert vec.solution._flows == ref.solution._flows
        assert vec.unrouted == ref.unrouted
        assert vec.paths_computed == ref.paths_computed
        assert loads(router) == loads(oracle)

    def test_direction_without_demand_adds_no_penalty(self):
        """The search prices both directions of every stage in its one
        pass; a direction the chain sends nothing in must still add
        nothing.  Here the reverse links of the nearer site are nearly
        full: with forward-only demand it stays the cheaper site."""
        nodes = ["in", "near", "far", "out"]
        latency = {
            ("in", "near"): 5.0, ("near", "out"): 5.0, ("in", "far"): 7.0,
            ("far", "out"): 7.0, ("in", "out"): 9.0, ("near", "far"): 4.0,
        }
        sites = [CloudSite("N", "near", 100.0), CloudSite("F", "far", 100.0)]
        vnfs = [VNF("fw", 1.0, {"N": 50.0, "F": 50.0})]
        links = [
            Link(f"{a}>{b}", a, b, 100.0, 99.0 if (a, b) == ("near", "in") else 0.0)
            for edge in ("in", "out") for site in ("near", "far")
            for a, b in ((edge, site), (site, edge))
        ]
        routing = {(link.src, link.dst): {link.name: 1.0} for link in links}

        def routed(reverse):
            chain = Chain("c", "in", "out", ["fw"], 1.0, reverse)
            return NetworkModel(nodes, latency, sites, vnfs, [chain], links, routing)

        for route in (route_chains_dp, reference):
            result = route(routed(0.0), DpConfig())
            assert result.solution._flows == {
                ("c", 1): {("in", "N"): 1.0}, ("c", 2): {("N", "out"): 1.0}
            }
        # ...while with reverse demand the full link does push it away.
        assert route_chains_dp(routed(0.5)).solution._flows[("c", 1)] == {
            ("in", "F"): 1.0
        }

    def test_one_hop_takes_the_cheapest_hop_from_the_site_it_picked(self):
        """ONEHOP lands the first VNF at the nearer B, then stays at B
        because A is far *from B*; the whole-chain recurrence prefers A
        twice for its short exit.  Reading the stage costs from any row
        but the picked site's (here A's, the front's first) would hop
        to A."""
        nodes = ["in", "a", "b", "out"]
        latency = {
            ("in", "a"): 2.0, ("in", "b"): 1.0, ("a", "b"): 5.0,
            ("a", "out"): 1.0, ("b", "out"): 20.0, ("in", "out"): 30.0,
        }
        sites = [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)]
        vnfs = [VNF(name, 1.0, {"A": 50.0, "B": 50.0}) for name in ("f1", "f2")]
        chain = Chain("c", "in", "out", ["f1", "f2"], 1.0, 0.0)
        model = NetworkModel(nodes, latency, sites, vnfs, [chain])

        def route_sites(route, config):
            flows = route(model, config).solution._flows
            return [next(iter(flows[("c", z)]))[1] for z in (1, 2)]

        one_hop = DpConfig(per_hop=True, utilization_cost=False)
        for route in (route_chains_dp, reference):
            assert route_sites(route, one_hop) == ["B", "B"]
            assert route_sites(route, DpConfig.latency_only()) == ["A", "A"]

    def test_the_generator_reaches_the_hard_cases(self):
        """Partial multi-pass routings, directions without demand and
        dead sites must really come up, or the property above is idle."""
        seen = dict.fromkeys(
            ("multi_pass", "partial", "reverse_only_on_some_stages",
             "vnf_without_capacity_at_a_site", "site_without_capacity"), 0
        )
        for seed in range(40):
            model = dp_model(seed)
            result = route_chains_dp(model)
            seen["multi_pass"] += any(  # one chain over two or more paths
                len(flows) > 1 for flows in result.solution._flows.values()
            )
            seen["partial"] += any(0 < r < 1 for r in result.unrouted.values())
            seen["reverse_only_on_some_stages"] += any(
                0.0 < max(c.reverse_traffic) and 0.0 in c.reverse_traffic
                for c in model.chains.values()
            )
            seen["vnf_without_capacity_at_a_site"] += any(
                0.0 in v.site_capacity.values() for v in model.vnfs.values()
            )
            seen["site_without_capacity"] += any(
                s.capacity == 0 for s in model.sites.values()
            )
        assert all(count >= 5 for count in seen.values()), seen


def with_router(model, config):
    """``route_chains_dp(model, config)`` and the router it routed with."""
    made, original = [], dp_mod._DpRouter

    class Recorded(original):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    dp_mod._DpRouter = Recorded
    try:
        return route_chains_dp(model, config), made[0]
    finally:
        dp_mod._DpRouter = original


def reference(model, config=None):
    """The oracle's result, having checked that it searched."""
    result, oracle = route_chains_dp_reference(model, config)
    assert oracle.costs > 0
    return result


def loads(router):
    """The residual arrays a router committed, for ``==``."""
    state = router.state
    return state.vnf_load.tolist(), state.site_load.tolist(), state.link_load.tolist()


def scalar_incremental(model, config=None):
    """``IncrementalDpRouter`` searching with the scalar recurrence."""
    router = IncrementalDpRouter(model, config)
    router._router = ScalarDpRouter(model, router.config)
    return router


def new_shapes(model, rng, count):
    """``count`` chains, every one a new (ingress, egress, VNF sequence)."""
    sequences = [
        seq for k in range(len(model.vnfs) + 1)
        for seq in itertools.permutations(model.vnfs, k)
    ]
    shapes = [
        (a, b, seq) for a in model.nodes for b in model.nodes for seq in sequences
    ]
    chains = []
    for i, (a, b, seq) in enumerate(rng.sample(shapes, min(count, len(shapes)))):
        stages = len(seq) + 1
        chains.append(Chain(
            f"s{i}", a, b, seq,
            [rng.choice([0.0, 1.0, 4.0, 9.0]) for _ in range(stages)],
            [rng.choice([0.0, 0.0, 0.5, 3.0]) for _ in range(stages)],
        ))
    return chains


def churn(router, model, chains, retire=None, cold=False):
    """Install the chains one by one -- retiring some when given an rng,
    dropping the substrate's per-sequence and per-front arrays before
    every search when ``cold``; everything a caller can see after every
    step."""
    seen = []
    for chain in chains:
        model.add_chain(chain)
        if cold:
            sub = model.substrate_columns()
            sub._site_runs.clear()
            sub._transitions.clear()
        carried = router.route(chain.name)
        seen.append((carried, {k: dict(v) for k, v in router.solution._flows.items()}))
        if retire is not None and retire.random() < 0.4:
            router.rollback(chain.name)
            model.remove_chain(chain.name)
    state = router._router.state
    seen.append((state.vnf_load.tolist(), state.site_load.tolist(), state.link_load.tolist()))
    return seen


def profiled_calls(call):
    """Calls while ``call()`` runs, Python and C functions alike, by
    name and by (calling function, name)."""
    counts: dict = {}

    def tracer(frame, event, arg):
        if event == "call":
            name, caller = frame.f_code.co_name, frame.f_back.f_code.co_name
        elif event == "c_call":
            name, caller = arg.__name__, frame.f_code.co_name
        else:
            return
        for key in (name, (caller, name)):
            counts[key] = counts.get(key, 0) + 1

    sys.setprofile(tracer)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


class TestDpSearchUnderShapeChurn:
    """What a chain table refers to is cached per VNF sequence and per
    front pair on the substrate: every way those caches could hand a
    search the wrong array, against the scalar oracle with ``==``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 1_000_000),
        st.sampled_from(TestDpBatchedSearchEquivalence.CONFIGS),
        st.booleans(),
    )
    def test_every_chain_a_new_shape(self, seed, config, with_routing):
        models = [
            dp_model(seed, n_vnfs=3, n_chains=0, with_routing=with_routing)
            for _ in range(2)
        ]
        chains = new_shapes(models[0], random.Random(seed), 10)
        assert len({(c.ingress, c.egress, c.vnfs) for c in chains}) == len(chains)
        oracle = scalar_incremental(models[1], config)
        vec = churn(IncrementalDpRouter(models[0], config), models[0], chains)
        ref = churn(oracle, models[1], chains)
        assert oracle._router.costs > 0
        assert vec == ref  # the last entries: the residual arrays

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1_000_000), st.booleans())
    def test_retirements_leave_nothing_stale(self, seed, with_routing):
        """Install / retire churn (a rollback leaves float residue the
        scalar penalty refuses, so the twin here is the same search
        building its arrays anew every time)."""
        models = [
            dp_model(seed, n_vnfs=3, n_chains=0, with_routing=with_routing)
            for _ in range(2)
        ]
        chains = new_shapes(models[0], random.Random(seed), 12)
        warm = churn(IncrementalDpRouter(models[0]), models[0], chains, random.Random(seed))
        cold = churn(
            IncrementalDpRouter(models[1]), models[1], chains, random.Random(seed), cold=True
        )
        assert warm == cold

    @staticmethod
    def line_model(caps, site_caps, extra_nodes=(), routing=False):
        """``in`` -> one of three sites at growing distance -> ``out``."""
        nodes = ["in", "x", "y", "z", "out", *extra_nodes]
        latency = {(a, b): 10.0 for a in nodes for b in nodes if a != b}
        latency.update({
            ("in", "x"): 1.0, ("x", "out"): 1.0, ("in", "y"): 2.0,
            ("y", "out"): 2.0, ("in", "z"): 3.0, ("z", "out"): 3.0,
        })
        sites = [CloudSite(s.upper(), s, c) for s, c in zip("xyz", site_caps)]
        vnfs = [VNF("fw", 1.0, dict(zip("XYZ", caps)))]
        links, table = [], {}
        if routing:
            links = [Link(f"{a}>{b}", a, b, 50.0) for a in nodes for b in nodes if a != b]
            table = {(k.src, k.dst): {k.name: 1.0} for k in links}
        return NetworkModel(nodes, latency, sites, vnfs, [], links, table)

    def both(self, build, chain, config=None):
        """Route ``chain`` on two builds of one model; the vectorized
        result, checked against the oracle's."""
        results = []
        for make in (IncrementalDpRouter, scalar_incremental):
            model = build()
            model.add_chain(chain)
            router = make(model, config)
            results.append((router.route(chain.name), router.solution._flows, router))
        assert results[1][2]._router.costs > 0
        assert results[0][:2] == results[1][:2]
        assert loads(results[0][2]._router) == loads(results[1][2]._router)
        return results[0]

    def test_a_vnf_blocked_site_and_a_site_blocked_site_are_skipped(self):
        chain = Chain("c", "in", "out", ["fw"], 1.0)
        # X has no VNF capacity left, Y no site capacity: Z carries it.
        carried, flows, _ = self.both(
            lambda: self.line_model((0.0, 50.0, 50.0), (100.0, 0.0, 100.0)), chain
        )
        assert carried == 1.0
        assert flows[("c", 1)] == {("in", "Z"): 1.0}

    @pytest.mark.parametrize("routing", [False, True])
    def test_a_stage_with_every_site_blocked_commits_nothing(self, routing):
        chain = Chain("c", "in", "out", ["fw"], 1.0, 0.5)
        carried, flows, router = self.both(
            lambda: self.line_model((0.0, 50.0, 0.0), (100.0, 0.0, 100.0), routing=routing),
            chain,
        )
        assert carried == 0.0 and flows == {}
        state = router._router.state
        assert not state.vnf_load.any() and not state.site_load.any()
        assert (state.link_load == state.sub.link_background).all()

    @pytest.mark.parametrize("config", [DpConfig(), DpConfig.latency_only()])
    @pytest.mark.parametrize("routing", [False, True])
    def test_an_ingress_that_is_a_node_and_not_a_site(self, routing, config):
        chain = Chain("c", "edge", "out", ["fw"], [2.0, 0.0], [0.0, 1.0])
        build = lambda: self.line_model(  # noqa: E731
            (1.0, 50.0, 50.0), (100.0, 100.0, 100.0), ["edge"], routing
        )
        assert "edge" not in build().sites
        carried, flows, _ = self.both(build, chain, config)
        assert carried == 1.0
        assert {src for src, _dst in flows[("c", 1)]} == {"edge"}

    def test_the_caches_die_with_the_substrate(self):
        """A catalogue entry swapped in place + ``invalidate_substrate()``
        (``controller.failures``): the next search sees the new capacity
        and bandwidth, not the arrays of the old views."""
        def run(make):
            model = self.line_model((50.0, 50.0, 50.0), (100.0, 100.0, 100.0), routing=True)
            router = make(model)
            model.add_chain(Chain("c0", "in", "out", ["fw"], 1.0))
            first = router.route("c0")
            old = model.substrate_columns()
            model.vnfs["fw"] = VNF("fw", 1.0, {"X": 0.0, "Y": 50.0, "Z": 50.0})
            link = model.links["in>y"]
            model.links["in>y"] = Link(link.name, link.src, link.dst, 0.5)
            model.invalidate_substrate()
            model.add_chain(Chain("c1", "in", "out", ["fw"], 1.0))
            second = router.route("c1")
            assert model.substrate_columns() is not old
            return first, second, router.solution._flows, loads(router._router)

        vec, ref = run(IncrementalDpRouter), run(scalar_incremental)
        assert vec == ref
        assert ("in", "X") in vec[2][("c0", 1)] and ("in", "X") not in vec[2][("c1", 1)]

    def test_a_capacity_clone_starts_its_own_caches(self):
        base = self.line_model((50.0, 50.0, 50.0), (100.0, 100.0, 100.0), routing=True)
        chain = Chain("c", "in", "out", ["fw"], 4.0, 1.0)
        base.add_chain(chain)
        IncrementalDpRouter(base).route("c")  # fills the base's caches
        shrunk = [
            Link(k.name, k.src, k.dst, 2.0 if k.name == "in>x" else k.bandwidth)
            for k in base.links.values()
        ]
        tight = [VNF("fw", 1.0, {"X": 50.0, "Y": 3.0, "Z": 50.0})]
        results, clones = [], []
        for make in (IncrementalDpRouter, scalar_incremental):
            clone = base.copy_with_capacities(base.sites.values(), tight, shrunk)
            clone.add_chain(chain)
            router = make(clone)
            results.append((router.route("c"), router.solution._flows, loads(router._router)))
            clones.append(clone)
        assert results[0] == results[1]
        sub, own = base.substrate_columns(), clones[0].substrate_columns()
        assert sub._transitions and own._transitions and own._site_runs
        assert not {id(t) for t in sub._transitions.values()} & {
            id(t) for t in own._transitions.values()
        }
        x = own.link_index["in>x"]  # the clone's search reads the clone's bandwidth
        assert own.link_bandwidth[x] == 2.0 and sub.link_bandwidth[x] == 50.0

    def test_an_unseen_shape_over_seen_fronts_builds_no_array(self):
        model = self.line_model((50.0, 50.0, 50.0), (100.0, 100.0, 100.0), routing=True)
        router = IncrementalDpRouter(model)
        chains = [
            Chain("there", "in", "out", ["fw"], 1.0),
            Chain("back", "out", "in", ["fw"], 1.0),
            Chain("loop", "in", "in", ["fw"], 1.0),  # in -> fw and fw -> in were crossed
        ]
        counts = []
        for chain in chains:
            model.add_chain(chain)
            counts.append(profiled_calls(lambda: router.route(chain.name)))
            assert router.solution.routed_fraction(chain.name) == 1.0
        # a chain's two new stage transitions are built in one pass, both
        # link directions of both pairs in one gather each
        for seen in counts[:2]:
            assert seen["_build_transitions"] == 1 and seen["_link_entries"] == 2
        assert counts[0][("site_run", "repeat")] == 1
        assert ("site_run", "repeat") not in counts[1]
        unseen = counts[2]
        assert unseen["chain_table"] == 1
        for name in ("_build_transitions", ("site_run", "repeat"), "cumsum", "tobytes", "ix_"):
            assert name not in unseen, name

    @pytest.mark.parametrize("config", [DpConfig(), DpConfig.one_hop()])
    def test_a_chain_is_laid_out_once_and_walked_by_id(self, config):
        """One layout per ``route_chain``: the second and later searches
        concatenate nothing and look up no chain table, and feasibility
        and commit walk no name (no model lookup per hop)."""
        # Each site takes a third of the chain: three passes.
        model = self.line_model((1.0, 1.0, 1.0), (100.0, 100.0, 100.0), routing=True)
        model.add_chain(Chain("c", "in", "out", ["fw"], 1.0, 0.5))
        router = IncrementalDpRouter(model, config)
        calls = profiled_calls(lambda: router.route("c"))
        assert router.solution.routed_fraction("c") == pytest.approx(1.0)
        assert router._router.paths_computed == calls["_search"] == 3
        assert calls["chain_table"] == calls["__init__"] == 1  # one _Layout
        # ...which concatenates (as the sequence's first site run does).
        concatenating = {
            key[0] for key in calls if isinstance(key, tuple) and key[1] == "concatenate"
        }
        assert concatenating == {"__init__", "site_run"}
        assert calls["_carry"] == 3
        for name in ("links_between", "endpoint_node", "vnf_at", "stage_traffic"):
            assert name not in calls, name


class TestMaxMinEquivalence:
    def _random_testbed(self, rng):
        nodes = ["A", "B", "C", "D"]
        rtt = {}
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                rtt[(a, b)] = float(rng.uniform(5.0, 120.0))
        bed = E2ETestbed(rtt_ms=rtt)
        inst_names = []
        for i in range(rng.integers(2, 6)):
            name = f"vnf{i}"
            bed.add_instance(
                VnfInstanceSpec(
                    name,
                    nodes[rng.integers(0, len(nodes))],
                    capacity_mbps=float(rng.uniform(40.0, 400.0)),
                )
            )
            inst_names.append(name)
        for j in range(rng.integers(2, 10)):
            hops = [nodes[rng.integers(0, len(nodes))] for _ in range(3)]
            k = rng.integers(0, 3)
            instances = [
                inst_names[rng.integers(0, len(inst_names))] for _ in range(k)
            ]
            bed.add_route(
                E2ERoute(
                    f"r{j}", hops, instances, float(rng.uniform(10.0, 500.0))
                )
            )
        return bed

    def test_rates_match_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            bed = self._random_testbed(rng)
            fast = bed.evaluate()
            slow = evaluate_reference(bed)
            assert set(fast.routes) == set(slow.routes)
            for name in fast.routes:
                f, s = fast.routes[name], slow.routes[name]
                assert abs(f.throughput_mbps - s.throughput_mbps) <= TOL
                assert abs(f.rtt_ms - s.rtt_ms) <= TOL
                assert f.bottleneck == s.bottleneck
            for name in fast.utilization:
                assert (
                    abs(fast.utilization[name] - slow.utilization[name]) <= TOL
                )


class TestMatrixCacheRoundTrip:
    """Reuse on demand-only change, invalidation on topology change."""

    def test_demand_change_reuses_structure(self):
        clear_matrix_cache()
        model = make_model()
        solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        stats = matrix_cache_stats()
        assert stats["matrix_rebuilds"] == 1

        # Scale one chain's demand: same variable space, new RHS.  The
        # *last* chain in insertion order, so remove+add keeps the
        # variable ordering (and hence the structure digest) intact.
        name = list(model.chains)[-1]
        chain = model.chains[name]
        model.remove_chain(name)
        model.add_chain(chain.scaled(1.7))
        fast = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        stats = matrix_cache_stats()
        assert stats["matrix_rebuilds"] == 1
        assert stats["matrix_reuse_hits"] == 1
        # The reused structure must still solve the *new* demands.
        slow = solve_chain_routing_lp_reference(
            model, LpObjective.MAX_THROUGHPUT
        )
        assert fast.solution.throughput() == pytest.approx(
            slow.solution.throughput(), abs=1e-6
        )
        clear_matrix_cache()

    def test_topology_change_invalidates(self):
        clear_matrix_cache()
        model = make_model()
        solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert matrix_cache_stats()["matrix_rebuilds"] == 1

        # In-place latency mutation (what fail_link does) must not keep
        # serving the stale structure once the caches are invalidated.
        digest_before = model.structure_digest()
        key = next(k for k, d in model._latency.items() if d > 0.0)
        model._latency[key] = model._latency[key] * 3.0
        model.invalidate_substrate()
        assert model.structure_digest() != digest_before

        solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert matrix_cache_stats()["matrix_rebuilds"] == 2
        clear_matrix_cache()

    def test_fail_restore_link_round_trips_digest(self):
        model = make_model()
        digest_before = model.structure_digest()
        key = next(k for k, d in model._latency.items() if d > 0.0)
        stash = model._latency[key]
        model._latency[key] = float("inf")
        model.invalidate_substrate()
        assert model.structure_digest() != digest_before
        model._latency[key] = stash
        model.invalidate_substrate()
        assert model.structure_digest() == digest_before
