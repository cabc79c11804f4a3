"""Tests for the solver farm: caching, incremental re-solve, the
monolithic fallback, and the GlobalSwitchboard wiring."""

import pytest

from repro.core.lp import LpObjective, LpResult, solve_chain_routing_lp
from repro.obs import MetricsRegistry
from repro.scale import (
    FarmResult,
    PartitionError,
    SolutionCache,
    SolverFarm,
)
from tests.test_scale_partition import clustered_model, coupled_model


def scale_demand(model, name, factor):
    chain = model.chains[name]
    model.remove_chain(name)
    model.add_chain(chain.scaled(factor))


class TestFarmSolve:
    def test_exact_partitioning_matches_monolithic(self):
        model = clustered_model(3)
        mono = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
        farm = SolverFarm(partition_size=1)
        result = farm.solve(model, LpObjective.MIN_LATENCY)
        assert result.ok and result.exact
        assert result.objective == pytest.approx(mono.objective, rel=1e-6)
        assert result.solution.throughput() == pytest.approx(
            mono.solution.throughput(), rel=1e-6
        )
        result.solution.validate()

    def test_split_solution_is_feasible(self):
        model = coupled_model(6, demands=[1, 2, 3, 4, 5, 6], bandwidth=100.0)
        farm = SolverFarm(partition_size=2)
        result = farm.solve(model)
        assert result.ok and not result.exact
        assert result.solution.violations() == []

    def test_repeat_solve_served_from_cache(self):
        model = clustered_model(3)
        farm = SolverFarm(partition_size=1)
        first = farm.solve(model)
        second = farm.solve(model)
        assert first.cache_hits == 0 and len(first.solved) == 3
        assert second.cache_hits == 3 and len(second.solved) == 0
        assert farm.cache.stats.hits == 3
        assert farm.cache.stats.misses == 3
        assert second.objective == pytest.approx(first.objective)

    def test_objective_is_part_of_cache_key(self):
        farm = SolverFarm(partition_size=1)
        model = clustered_model(2)
        farm.solve(model, LpObjective.MIN_LATENCY)
        result = farm.solve(model, LpObjective.MAX_THROUGHPUT)
        assert result.cache_hits == 0

    def test_shared_cache_across_farms(self):
        cache = SolutionCache()
        model = clustered_model(2)
        SolverFarm(partition_size=1, cache=cache).solve(model)
        result = SolverFarm(
            partition_size=1, cache=cache
        ).solve(model)
        assert result.cache_hits == 2


class TestIncrementalResolve:
    def test_only_changed_partition_resolves(self):
        registry = MetricsRegistry()
        model = clustered_model(4)
        farm = SolverFarm(partition_size=1, metrics=registry)
        farm.solve(model)
        before = registry.value("scale.partition_solves")
        scale_demand(model, "c2", 1.5)
        result = farm.resolve(model, ["c2"])
        assert registry.value("scale.partition_solves") - before == 1
        assert len(result.solved) == 1
        assert result.cache_hits == 3

    def test_resolved_solution_reflects_new_demand(self):
        model = clustered_model(3)
        farm = SolverFarm(partition_size=1)
        farm.solve(model)
        scale_demand(model, "c1", 2.0)
        result = farm.resolve(model, ["c1"])
        mono = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert result.solution.throughput() == pytest.approx(
            mono.solution.throughput(), rel=1e-6
        )

    def test_resolve_without_plan_falls_back_to_solve(self):
        model = clustered_model(2)
        farm = SolverFarm(partition_size=1)
        result = farm.resolve(model, ["c0"])
        assert result.ok
        assert len(result.solved) == 2

    def test_resolve_after_chain_set_change_replans(self):
        model = clustered_model(2)
        farm = SolverFarm(partition_size=1)
        farm.solve(model)
        grown = clustered_model(3)
        result = farm.resolve(grown, ["c2"])
        assert result.ok
        assert len(result.solved) == 3  # full re-plan, no stale cache use

    def test_cached_result_is_restamped_with_its_current_index(self):
        # Regression: removing an earlier-sorted coupling group shifts
        # every later partition down one index; their sub-model digests
        # are unchanged, so they are cache hits solved under the old index.
        model = clustered_model(3)
        farm = SolverFarm(partition_size=1)
        farm.solve(model)
        model.remove_chain("c0")
        result = farm.resolve(model, [])
        assert result.cache_hits == 2 and result.solved == ()
        assert all(r.partition_index == i for i, r in result.results.items())
        assert [r.chains for r in result.results.values()] == [("c1",), ("c2",)]
        # ... and with a cache shared between farms planning different sets
        other = SolverFarm(partition_size=1, cache=farm.cache)
        shifted = other.solve(clustered_model(3).copy_with_chains(
            [model.chains["c2"]]
        ))
        assert shifted.cache_hits == 1
        assert shifted.results[0].partition_index == 0

    def test_resolve_rejects_a_chain_the_plan_does_not_know(self):
        model = clustered_model(2)
        farm = SolverFarm(partition_size=1)
        farm.solve(model)
        with pytest.raises(PartitionError):
            farm.resolve(model, ["nope"])

    def test_resolve_after_substrate_edit_replans(self):
        # Regression: ``fail_link``/``restore_link`` mutate latencies in
        # place and call ``invalidate_substrate()`` -- the chain set is
        # unchanged, but the stored partition plan (shares, pre-route)
        # was computed against the old substrate and must not be reused.
        model = clustered_model(3)
        farm = SolverFarm(partition_size=1)
        first = farm.solve(model, LpObjective.MIN_LATENCY)
        plan_before = farm.plan
        # Degrade cluster 0's b0-c0 link the way fail_link does.
        model._latency[("b0", "c0")] = 100.0
        model.invalidate_substrate()
        assert not plan_before.compatible_with(model)
        result = farm.resolve(model, [], LpObjective.MIN_LATENCY)
        assert farm.plan is not plan_before  # plan was rebuilt
        assert result.ok
        # The detour through site A (latency 30) replaces the broken
        # a0->b0->c0 path (latency 25), so the optimum strictly worsens.
        assert result.objective > first.objective + 1.0
        # Restoring the exact pre-edit latency makes the substrate
        # digest match again and the re-plan converges back.
        model._latency[("b0", "c0")] = 15.0
        model.invalidate_substrate()
        restored = farm.resolve(model, [], LpObjective.MIN_LATENCY)
        assert restored.ok
        assert restored.objective == pytest.approx(first.objective, rel=1e-6)


class TestPoolAndFallback:
    def test_infeasible_partition_falls_back_to_monolithic(self):
        registry = MetricsRegistry()
        # MIN_LATENCY must route everything; demand 40 > capacity 20.
        model = coupled_model(2, demands=[20.0, 20.0], fw_cap=20.0)
        farm = SolverFarm(partition_size=1, metrics=registry)
        result = farm.solve(model, LpObjective.MIN_LATENCY)
        assert result.fallback
        assert result.status == "infeasible"
        assert registry.value("scale.fallbacks") == 1

    def test_failed_results_not_cached(self):
        model = coupled_model(2, demands=[20.0, 20.0], fw_cap=20.0)
        farm = SolverFarm(partition_size=1)
        farm.solve(model, LpObjective.MIN_LATENCY)
        assert len(farm.cache) == 0


class TestSerialOnly:
    def test_no_module_imports_a_process_pool(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [
                    f"{path.relative_to(root)}: {name}" for name in names
                    if name.split(".")[0] in ("concurrent", "multiprocessing")
                ]
        assert found == []

    def test_coordinator_accepts_only_one_worker(self):
        from repro.federation import GlobalCoordinator

        with pytest.raises(ValueError):
            GlobalCoordinator(clustered_model(2), max_workers=2)


class TestSwitchboardWiring:
    def build(self, solver=None):
        from tests.test_failures import build_deployment

        gs, _service, _ingress, _egress = build_deployment()
        gs.solver = solver
        return gs

    def test_default_plan_routes_is_direct_lp(self):
        from tests.test_failures import spec

        gs = self.build()
        gs.create_chain(spec("c1", demand=5.0))
        plan = gs.plan_routes()
        direct = solve_chain_routing_lp(gs.model, LpObjective.MAX_THROUGHPUT)
        assert isinstance(plan, LpResult)
        assert plan.objective == pytest.approx(direct.objective)

    def test_solver_strategy_dispatch(self):
        from tests.test_failures import spec

        farm = SolverFarm(partition_size=1)
        gs = self.build(solver=farm)
        gs.create_chain(spec("c1", demand=5.0))
        plan = gs.plan_routes()
        assert isinstance(plan, FarmResult)
        assert plan.ok

    def test_reoptimize_attaches_incremental_plan(self):
        from repro.controller import reoptimize
        from tests.test_failures import spec

        farm = SolverFarm(partition_size=1)
        gs = self.build(solver=farm)
        gs.create_chain(spec("c1", demand=5.0))
        gs.create_chain(spec("c2", demand=4.0, dst="20.0.1.0/24"))
        gs.plan_routes()  # warm the cache with the pre-change demands
        report = reoptimize(gs, {"c1": 2.0, "c2": 1.0})
        assert report.plan is not None
        assert report.plan.ok
        # Only c1's partition re-solved; c2's came from the cache.
        assert report.plan.cache_hits >= 1
        assert report.plan.solution.throughput() == pytest.approx(
            gs.model.total_demand()
        )

    def test_reoptimize_without_solver_has_no_plan(self):
        from repro.controller import reoptimize
        from tests.test_failures import spec

        gs = self.build()
        gs.create_chain(spec("c1", demand=5.0))
        report = reoptimize(gs, {"c1": 2.0})
        assert report.plan is None
