"""The feasibility certificate against its reference, by mutation.

A solved partition carries a :class:`~repro.core.routes.Certificate`
(:func:`repro.core.formulation.certify`), a farm result adds its
partitions' certificates up and ``GlobalCoordinator._merge`` runs the
multi-pass ``RoutingSolution.violations()`` only where the sum does not
clear the region's capacities outright.  Contracts:

- *sound*: ``clears`` implies ``violations() == []``, whatever was done
  to the flows -- a value scaled past a site, (VNF, site) or link bound,
  conservation broken, a negative fraction, a chain routing more than 1,
  a flow at a non-deployment site;
- *the same report*: ``FederatedPlan.violations`` equals the reference
  list, strings and order, on clean and on tampered solver output, with
  and without the MLU rows, and a load within 1e-9 of its bound on
  either side is the reference's call;
- *by name*: a cached result picked up by a farm whose model lists sites,
  VNFs and links in another insertion order certifies that model;
- *O(what changed)*: a demand-only ``resolve`` touching one partition
  runs no reference pass, copies at most one sub-model and encodes at
  most one chain document per re-solved partition, none for the others.
"""

import random
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.lp as lp_mod
from repro.core.formulation import certify
from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    matrix_cache_stats,
    solve_chain_routing_lp,
)
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.core.routes import RoutingSolution
from repro.federation import GlobalCoordinator
from repro.scale import SolutionCache, SolverFarm
from repro.topology.pops import PopGridConfig, generate_federation_workload
from tests.test_vectorized_equivalence import small_models


# -- the function against violations(), flows tampered with ----------------


def rows_of(solution):
    """A solution's flows as ``(chain, stage, src, dst, fraction)`` rows."""
    return [astuple(flow) for flow in solution.flows()]


def flow_arrays(model, rows):
    """``rows`` as ``certify`` takes them: stage-table row, endpoint ids
    and value per flow."""
    sub, ch = model.substrate_columns(), model.chain_columns()
    stage = [ch.chain_stage_start[ch.chain_index[c]] + z - 1 for c, z, *_ in rows]
    return (
        np.array(stage, dtype=np.int64),
        np.array([sub.endpoint_id(r[2], model) for r in rows], dtype=np.int64),
        np.array([sub.endpoint_id(r[3], model) for r in rows], dtype=np.int64),
        np.array([r[4] for r in rows], dtype=float),
    )


def planted(model, stage, src, dst, value) -> RoutingSolution:
    """The same flows written straight into a solution, unchecked."""
    sub, ch = model.substrate_columns(), model.chain_columns()
    solution = RoutingSolution(model)
    for k, a, b, x in zip(stage.tolist(), src.tolist(), dst.tolist(), value.tolist()):
        key = (ch.chain_names[int(ch.stage_chain[k])], int(ch.stage_z[k]))
        solution._flows[key][(sub.endpoint_names[a], sub.endpoint_names[b])] = x
    return solution


MUTATIONS = ("none", "scale_up", "scale_down", "negative", "overroute", "undeployed")


def mutate(kind, rng, model, stage, src, dst, value):
    sub, ch = model.substrate_columns(), model.chain_columns()
    value = value.copy()
    dst = dst.copy()
    if kind == "none" or not len(value):
        return stage, src, dst, value
    i = rng.randrange(len(value))
    if kind == "scale_up":
        value[i] *= rng.choice([1.0 + 1e-5, 3.0, 400.0])
    elif kind == "scale_down":
        value[i] *= rng.choice([0.0, 0.5, 1.0 - 1e-5])
    elif kind == "negative":
        value[i] = -rng.choice([1e-5, 0.3])
    elif kind == "overroute":
        first = np.flatnonzero(ch.stage_z[stage] == 1)
        value[first] *= rng.choice([1.0 + 1e-5, 2.0])
    elif kind == "undeployed":
        into = ch.stage_dst_vnf[stage]
        for j in np.flatnonzero(into >= 0).tolist():
            away = np.flatnonzero(np.isnan(sub.vnf_cap[into[j]]))
            if len(away):
                dst[j] = sub.n_nodes + int(away[0])
                break
    return stage, src, dst, value


class TestCertificateAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(small_models(), st.sampled_from(MUTATIONS), st.integers(0, 10**6))
    def test_clears_implies_no_violations(self, model, kind, seed):
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert result.ok
        sub, ch = model.substrate_columns(), model.chain_columns()
        arrays = mutate(
            kind, random.Random(seed), model, *flow_arrays(model, rows_of(result.solution))
        )
        reference = planted(model, *arrays).violations()
        cleared = certify(sub, ch, *arrays).clears(sub)
        assert not (cleared and reference), (kind, reference)
        if kind == "none":
            # what the solver returned is what the solution holds
            assert planted(model, *arrays)._flows == result.solution._flows
            assert result.solution.violations() == reference
            assert result.certificate.clears(sub) == cleared

    def test_every_planted_fault_is_seen(self):
        """One model where each kind of mutation does break something
        (scaling the one flow of a chain without VNFs down does not):
        none that does may clear."""
        model = tight_model()
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        sub, ch = model.substrate_columns(), model.chain_columns()
        base = flow_arrays(model, rows_of(result.solution))
        assert certify(sub, ch, *base).clears(sub)
        assert result.solution.violations() == []
        for kind in MUTATIONS[1:]:
            seen = 0
            for seed in range(8):
                arrays = mutate(kind, random.Random(seed), model, *base)
                if planted(model, *arrays).violations():
                    seen += 1
                    assert not certify(sub, ch, *arrays).clears(sub), kind
            assert seen >= 4, kind

    def test_loads_are_the_references(self):
        model = tight_model()
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        sub = model.substrate_columns()
        loads = result.certificate.loads
        pairs = result.solution.vnf_site_loads()
        sites = result.solution.site_loads()
        links = result.solution.link_traffic()
        n_pairs = len(sub.vnf_names) * len(sub.site_names)
        vnfs, names = sorted(sub.vnf_names), sorted(sub.site_names)
        for k, load in enumerate(loads[:n_pairs].tolist()):
            key = (vnfs[k // len(names)], names[k % len(names)])
            assert load == pytest.approx(pairs.get(key, 0.0), abs=1e-9)
        for name, load in zip(names, loads[n_pairs:n_pairs + len(names)].tolist()):
            assert load == pytest.approx(sites.get(name, 0.0), abs=1e-9)
        for name, load in zip(sorted(sub.link_names), loads[n_pairs + len(names):].tolist()):
            assert load == pytest.approx(links.get(name, 0.0), abs=1e-9)


def tight_model(order=1) -> NetworkModel:
    """Three nodes in a line, two VNFs, capacities that bind; ``order``
    -1 lists sites, VNFs, links and routing the other way round."""
    sites = [
        CloudSite("Sb", "b", 40.0), CloudSite("Sa", "a", 300.0),
        CloudSite("Sc", "c", 300.0),
    ]
    vnfs = [
        VNF("nat", 1.5, {"Sb": 30.0, "Sc": 90.0}),
        VNF("fw", 1.0, {"Sa": 25.0, "Sb": 35.0}),
    ]
    links = [
        Link("ab", "a", "b", 60.0, 5.0), Link("ba", "b", "a", 60.0),
        Link("bc", "b", "c", 45.0), Link("cb", "c", "b", 45.0, 2.0),
    ]
    routing = {
        ("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0},
        ("b", "c"): {"bc": 1.0}, ("c", "b"): {"cb": 1.0},
        ("a", "c"): {"ab": 1.0, "bc": 1.0}, ("c", "a"): {"cb": 1.0, "ba": 1.0},
    }
    chains = [
        Chain("c0", "a", "c", ["fw", "nat"], 9.0, 1.0),
        Chain("c1", "a", "c", ["fw", "nat"], 7.0, 0.0),
        Chain("c2", "c", "a", ["nat"], 6.0, 2.0),
        Chain("c3", "b", "c", ["fw"], 8.0, 0.0),
        Chain("c4", "a", "b", [], 5.0, 0.5),
        # reverse-only traffic, and a stage without demand
        Chain("c5", "c", "a", ["fw"], 0.0, 4.0),
        Chain("c6", "a", "c", ["nat"], [3.0, 0.0], [0.0, 0.0]),
    ]
    latency = {("a", "b"): 5.0, ("b", "c"): 7.0, ("a", "c"): 12.0}
    if order < 0:
        sites, vnfs, links = sites[::-1], vnfs[::-1], links[::-1]
        routing = dict(reversed(list(routing.items())))
    return NetworkModel(
        ["a", "b", "c"][::order], latency, sites, vnfs, chains, links, routing,
        mlu_limit=0.9,
    )


# -- the merged report against the reference -------------------------------


def federation(seed=5, chains=30, pops=12, regions=2, partition_size=6):
    full, _metros = generate_federation_workload(PopGridConfig(
        num_pops=pops, num_metros=regions, num_chains=chains, seed=seed,
        total_traffic=16.0 * chains,
    ))
    coordinator = GlobalCoordinator(
        full.copy_with_chains([]), n_regions=regions,
        partition_size=partition_size,
    )
    for chain in full.chains.values():
        coordinator.submit(chain)
    return coordinator


def reference_report(coordinator, plan) -> list[str]:
    report = []
    for region in sorted(plan.per_region):
        solution = plan.per_region[region].solution
        if solution is not None:
            report += [f"region {region}: {p}" for p in solution.violations()]
    return report + coordinator.border_violations()


def rescale(coordinator, rng, count):
    model = coordinator.model
    names = rng.sample(sorted(model.chains), count)
    for name in names:
        chain = model.chains[name]
        model.remove_chain(name)
        model.add_chain(chain.scaled(rng.choice([0.8, 1.25])))
    return names


def tampering(monkeypatch, rng, how):
    """Make every LP solve hand back a tampered optimum."""
    honest = lp_mod.solve

    def tampered(program, *args, **kwargs):
        x, objective, elapsed = honest(program, *args, **kwargs)
        busy = np.flatnonzero(x[: program.n_flow] > 1e-3)
        if x is not None and len(busy) and rng.random() < 0.6:
            x = x.copy()
            i = int(rng.choice(busy.tolist()))
            x[i] = {"up": x[i] * 40.0, "down": x[i] * 0.5, "drop": 0.0}[how]
        return x, objective, elapsed

    monkeypatch.setattr(lp_mod, "solve", tampered)


class TestMergedReport:
    def test_rounds_report_what_the_reference_reports(self):
        """Cold, demand-only, churn and re-shared rounds, clean."""
        rng = random.Random(11)
        coordinator = federation()
        spare = [
            Chain(f"late{i}", c.ingress, c.egress, c.vnfs, 3.0, 0.5)
            for i, c in enumerate(list(coordinator.model.chains.values())[:4])
        ]
        plan = coordinator.plan_all()
        assert plan.violations == reference_report(coordinator, plan)
        for round_ in range(6):
            if round_ % 3 == 2:
                coordinator.remove(rng.choice(coordinator.installed()))
                coordinator.submit(spare.pop())
            plan = coordinator.resolve(
                coordinator.model, rescale(coordinator, rng, 2)
            )
            assert plan.ok
            assert plan.violations == reference_report(coordinator, plan)
            assert plan.violations == []

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["up", "down", "drop"]))
    def test_tampered_rounds_report_what_the_reference_reports(self, seed, how):
        rng = random.Random(seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            clear_matrix_cache()
            tampering(monkeypatch, rng, how)
            coordinator = federation(seed=seed % 7, chains=18, partition_size=4)
            plan = coordinator.plan_all()
            assert plan.violations == reference_report(coordinator, plan)
            plan = coordinator.resolve(
                coordinator.model, rescale(coordinator, rng, 3)
            )
            assert plan.violations == reference_report(coordinator, plan)
        clear_matrix_cache()

    def test_tampering_is_reported(self, monkeypatch):
        clear_matrix_cache()
        tampering(monkeypatch, random.Random(3), "up")
        coordinator = federation()
        plan = coordinator.plan_all()
        assert plan.violations and plan.violations == reference_report(coordinator, plan)
        clear_matrix_cache()

    @pytest.mark.parametrize("nudge", [-1e-9, 1e-9])
    def test_a_load_at_its_bound_is_the_references_call(self, monkeypatch, nudge):
        """fw at S: capacity 10, one unit of load per unit of traffic in
        and out, so x routes a load of 20 x; the reference flags loads
        above 10 + 1e-6."""
        model = NetworkModel(
            ["a", "b"], {("a", "b"): 1.0}, [CloudSite("S", "a", 100.0)],
            [VNF("fw", 1.0, {"S": 10.0})], [],
            [Link("ab", "a", "b", 1e3), Link("ba", "b", "a", 1e3)],
            {("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}},
        )
        coordinator = GlobalCoordinator(model, n_regions=1)
        coordinator.submit(Chain("c", "a", "b", ["fw"], 10.0, 0.0))
        x = (10.0 + 1e-6 + nudge) / 20.0
        monkeypatch.setattr(
            lp_mod, "solve", lambda *a, **k: (np.array([x, x]), -10.0 * x, 0.0)
        )
        clear_matrix_cache()
        plan = coordinator.plan_all()
        farm = plan.per_region[0]
        assert not farm.certificate.clears(
            coordinator.regionals[0].model.substrate_columns()
        )
        assert plan.violations == reference_report(coordinator, plan)
        assert bool(plan.violations) == (nudge > 0)
        clear_matrix_cache()

    def test_fallback_and_uncertified_results_take_the_reference(self, monkeypatch):
        coordinator = federation()
        plan = coordinator.plan_all()
        farm = coordinator.regionals[0].farm
        calls = []
        honest = RoutingSolution.violations
        monkeypatch.setattr(
            RoutingSolution, "violations",
            lambda self, tol=1e-6: calls.append(1) or honest(self, tol),
        )
        assert coordinator.plan_all().violations == [] and not calls
        # a cached result that carries no certificate
        key, entry = next(iter(farm.cache._entries.items()))
        farm.cache._entries[key] = type(entry)(**{
            **{f: getattr(entry, f) for f in entry.__dataclass_fields__},
            "certificate": None,
        })
        plan = coordinator.plan_all()
        assert plan.per_region[0].certificate is None
        assert plan.violations == [] and len(calls) == 1


class TestPlainFarm:
    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.sampled_from([None, 1, 2]))
    def test_exact_and_split_partitions_add_up(self, model, size):
        """A farm result's certificate is its partitions' (whole coupling
        groups under ``None``, split ones under 1 and 2) and clears only
        what the reference passes."""
        farm = SolverFarm(partition_size=size)
        result = farm.solve(model)
        assert result.ok
        sub = model.substrate_columns()
        reference = result.solution.violations()
        if result.fallback:
            assert result.certificate is None
            return
        assert not (result.certificate.clears(sub) and reference)
        np.testing.assert_allclose(
            result.certificate.loads,
            sum(r.certificate.loads for r in result.results.values()),
        )
        again = farm.resolve(model, [])
        assert again.cache_hits == len(again.results)
        assert again.certificate.clears(sub) == result.certificate.clears(sub)
        if not reference:
            assert result.certificate.clears(sub)


# -- cached results are keyed by name, not by one model's column ids -------


class TestSharedCacheAcrossInsertionOrders:
    def test_a_picked_up_result_certifies_the_model_that_picked_it_up(self):
        forward, backward = tight_model(1), tight_model(-1)
        assert forward.digest() == backward.digest()
        assert (
            forward.substrate_columns().site_names
            != backward.substrate_columns().site_names
        )
        cache = SolutionCache()
        first = SolverFarm(partition_size=3, cache=cache)
        second = SolverFarm(partition_size=3, cache=cache)
        alone = SolverFarm(partition_size=3)
        solved = first.solve(forward)
        picked = second.solve(backward)
        fresh = alone.solve(backward)
        assert solved.solved and not picked.solved
        assert picked.cache_hits == len(picked.results) > 1
        np.testing.assert_allclose(
            picked.certificate.loads, fresh.certificate.loads, atol=1e-6
        )
        sub = backward.substrate_columns()
        assert picked.certificate.clears(sub)
        assert picked.solution.violations() == []
        # ... and sees a fault planted in what it picked up
        heavy = max(picked.results.values(), key=lambda r: len(r.flows))
        stage, src, dst, value = flow_arrays(backward, heavy.flows)
        value[int(np.argmax(value))] *= 50.0
        tampered = certify(sub, backward.chain_columns(), stage, src, dst, value)
        assert not tampered.clears(sub)


    @pytest.mark.parametrize("objective", list(LpObjective))
    def test_a_cached_program_serves_only_its_own_insertion_order(self, objective):
        """ROADMAP item 6 (i): the structure digest sorts, a program's
        bounds and flow extraction hold one model's column ids."""
        forward, backward = tight_model(1), tight_model(-1)
        assert forward.structure_digest() == backward.structure_digest()
        clear_matrix_cache()
        first = solve_chain_routing_lp(forward, objective)
        second = solve_chain_routing_lp(backward, objective)
        assert matrix_cache_stats()["matrix_rebuilds"] == 2
        again = solve_chain_routing_lp(forward, objective)
        assert matrix_cache_stats()["matrix_reuse_hits"] == 1
        clear_matrix_cache()
        alone = solve_chain_routing_lp(backward, objective)
        assert first.ok and second.ok and alone.ok
        assert second.objective == pytest.approx(first.objective, rel=1e-7)
        assert second.objective == alone.objective
        assert again.objective == pytest.approx(first.objective, rel=1e-7)
        for own, result in ((forward, first), (backward, second), (forward, again)):
            assert result.solution.violations() == []
            assert result.certificate.clears(own.substrate_columns())
        assert second.solution._flows == alone.solution._flows


# -- a demand-only round pays for the partition it touched -----------------


def profiled(call):
    """Calls per code-object name while ``call()`` runs."""
    counts: dict[str, int] = {}

    def tracer(frame, event, _arg):
        if event == "call":
            name = frame.f_code.co_name
            counts[name] = counts.get(name, 0) + 1

    sys.setprofile(tracer)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, counts


class TestDemandRoundCost:
    def test_one_touched_partition_pays_for_one_partition(self):
        coordinator = federation(chains=36, partition_size=4)
        cold = coordinator.plan_all()
        assert cold.violations == []
        name = sorted(coordinator._intra)[0]
        region = coordinator._intra[name]
        model = coordinator.model
        chain = model.chains[name]
        model.remove_chain(name)
        model.add_chain(chain.scaled(1.25))
        plan, counts = profiled(lambda: coordinator.resolve(model, [name]))
        assert plan.ok and plan.violations == []
        solved = plan.per_region[region].solved
        assert len(solved) == 1
        assert len(plan.per_region[region].results) > 2
        assert all(
            result is cold.per_region[other]
            for other, result in plan.per_region.items() if other != region
        )
        assert counts.get("_check_chain", 0) == 0
        assert counts.get("_accumulate", 0) == 0
        assert counts.get("copy_with_chains", 0) <= 1
        assert counts.get("_document", 0) <= 1
        assert counts.get("clears", 0) == len(plan.per_region)
