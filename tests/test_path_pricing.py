"""Column generation prices routes, not arcs.

Each round ``ColumnGenSolver`` asks the structure's ``ChainFlow`` for
every chain's cheapest ingress-to-egress route under the current reduced
costs and adds the arcs of the improving ones.  Three things are checked:

- the pricing step is the minimum over *all* routes (brute-force
  enumeration), and conservation duals do not move it: a route enters a
  conservation row with +1 and leaves it with -1;
- whatever the first restricted master was -- seed columns, the previous
  optimum's pool and basis, a predecessor's carried support -- the solve
  ends on the optimum ``linprog`` finds for the whole program;
- a chain routed whole along one route (arcs non-basic at their upper
  bound 1, so its cheapest route prices negative with nothing left to
  add) ends the loop instead of spinning to ``MAX_ROUNDS``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import capacity as capacity_mod
from repro.core import lp as lp_mod
from repro.core.capacity import plan_cloud_capacity
from repro.core.highs import ColumnGenSolver
from repro.core.lp import LpObjective, matrix_cache_stats, solve_chain_routing_lp
from repro.obs.registry import MetricsRegistry
from repro.scale.partition import _scaled_substrate
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES
from tests.reference.brute import enumerate_paths
from tests.reference.capacity_scalar import plan_cloud_capacity_reference
from tests.reference.lp_scalar import solve_chain_routing_lp_reference
from tests.test_column_pool import cached_program, remove_and_add
from tests.test_maintained_plan import solver_farm_bench_model
from tests.test_program_fingerprints import regional_model, te_replan_model
from tests.test_vectorized_equivalence import make_model, small_models
from tests.test_warm_start_contract import rescaled_demands, share_vector

MAX_THROUGHPUT = LpObjective.MAX_THROUGHPUT


# -- (a) the pricing step ---------------------------------------------------


def route_variables(model, flow) -> dict:
    """chain name -> the variable tuple of every route of the chain."""
    sub, ch = model.substrate_columns(), model.chain_columns()
    var_of = {
        key: v for v, key in enumerate(
            zip(flow.var_stage.tolist(), flow.var_src_ep.tolist(), flow.var_dst_ep.tolist())
        )
    }
    routes = {}
    for c, chain in enumerate(model.chains.values()):
        first = ch.chain_stage_start[c]
        routes[chain.name] = []
        for path in enumerate_paths(model, chain):
            ends = [sub.endpoint_id(path.sites[0], model)]
            ends += [sub.n_nodes + sub.site_index[s] for s in path.sites[1:-1]]
            ends.append(sub.endpoint_id(path.sites[-1], model))
            routes[chain.name].append(tuple(
                var_of[first + z, a, b] for z, (a, b) in enumerate(zip(ends, ends[1:]))
            ))
    return routes


@settings(max_examples=60, deadline=None)
@given(small_models(), st.integers(0, 1_000_000))
def test_cheapest_route_is_the_minimum_over_all_routes(model, seed):
    rng = np.random.default_rng(seed)
    program = lp_mod._RoutingProgram(model, MAX_THROUGHPUT, True)
    flow, ch = program.flow, model.chain_columns()
    matrix = program.matrix(program.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev))
    duals = rng.normal(size=matrix.shape[0])
    reduced = rng.normal(size=program.n_total) - matrix.T @ duals
    costs, arcs = flow.cheapest_paths(reduced)

    for c, routes in enumerate(route_variables(model, flow).values()):
        best = min(reduced[list(route)].sum() for route in routes)
        assert costs[c] == pytest.approx(best, abs=1e-12)
        found = tuple(arcs[c][arcs[c] >= 0])
        assert found in routes
        assert reduced[list(found)].sum() == pytest.approx(costs[c], abs=1e-12)

    # The telescoping argument: MAX_THROUGHPUT's equality rows are the
    # conservation rows, and no dual on them moves any route's cost.
    n_cons = len(program.b_eq)
    assert n_cons == flow.n_cons
    shifted = duals.copy()
    shifted[len(duals) - n_cons:] += rng.normal(scale=10.0, size=n_cons)
    moved = reduced - matrix.T @ (shifted - duals)
    assert n_cons == 0 or not np.allclose(moved, reduced)
    assert flow.cheapest_paths(moved)[0] == pytest.approx(costs, abs=1e-9)


# -- (b) the optimum of the whole program, from any first master ---------------


def generated(seed: int):
    """Ten chains on eight cities: stages of 5 x 5 sites, of which the
    seed columns hold four, so the rest has to be priced in."""
    return make_model(seed=seed, num_chains=10)


def assert_optimal(model, metrics) -> None:
    ours = solve_chain_routing_lp(model, MAX_THROUGHPUT, metrics=metrics)
    reference = solve_chain_routing_lp_reference(model, MAX_THROUGHPUT)
    assert ours.ok and reference.ok
    assert ours.objective == pytest.approx(reference.objective, rel=1e-6)
    # ``linprog`` presolves, the restricted masters do not: under cut
    # capacity shares the two stop up to 1.2e-9 apart (arc pricing too).
    assert ours.solution.throughput() == pytest.approx(
        reference.solution.throughput(), rel=1e-8
    )
    # At loads near 1e3 HiGHS's feasibility tolerance is 1e-6 absolute.
    assert ours.solution.violations(tol=1e-5) == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_routing_ends_on_the_linprog_optimum(seed):
    rng = random.Random(seed)
    lp_mod.clear_matrix_cache()
    metrics = MetricsRegistry()
    base = generated(seed)
    assert_optimal(base, metrics)  # cold
    assert_optimal(rescaled_demands(base, rng), metrics)  # pool and basis
    shared = _scaled_substrate(base, share_vector(base, rng))
    assert_optimal(shared.copy_with_chains(base.chains.values()), metrics)
    assert matrix_cache_stats()["matrix_rebuilds"] == 1
    remove_and_add(base)  # a predecessor's support, carried
    assert_optimal(base, metrics)
    assert matrix_cache_stats()["matrix_rebuilds"] == 2
    assert metrics.counter("lp.colgen_fallbacks").value == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cloud_capacity_sweep_ends_on_the_linprog_optimum(seed):
    """``a_s`` and ``alpha`` are not flows: always seeded, priced singly."""
    capacity_mod._CACHE.clear()
    model = generated(seed)
    total = sum(s.capacity for s in model.sites.values())
    for share in (0.0, 0.1, 0.5, 0.25):
        ours = plan_cloud_capacity(model, share * total)
        reference = plan_cloud_capacity_reference(model, share * total)
        assert ours.alpha == pytest.approx(reference.alpha, rel=1e-6)
        assert sum(ours.additional.values()) <= share * total * (1 + 1e-9) + 1e-9
    assert capacity_mod._CACHE.stats()["matrix_rebuilds"] == 1


# -- (c) the degenerate stop ---------------------------------------------------


def test_a_chain_routed_whole_on_one_route_ends_the_loop():
    cities = DEFAULT_CITIES[:10]
    model = generate_workload(
        WorkloadConfig(
            num_chains=2, num_vnfs=5, coverage=0.8, total_traffic=1.0,
            site_capacity=1e6, cities=cities, seed=5,
        ),
        build_backbone(cities),
    )
    metrics = MetricsRegistry()
    result = solve_chain_routing_lp(model, MAX_THROUGHPUT, metrics=metrics)
    assert result.ok and metrics.counter("lp.colgen_fallbacks").value == 0
    assert result.solution.throughput() == pytest.approx(model.total_demand())

    program = cached_program()
    solver, ch = program.cg_solver, model.chain_columns()
    assert 1 < solver.last_rounds < ColumnGenSolver.MAX_ROUNDS
    x = np.zeros(program.n_total)
    x[solver._active] = solver._values
    assert sorted(x[x > 0]) == pytest.approx([1.0] * int((x > 0).sum()))
    # What the last round saw: a cheapest route that prices negative --
    # and is in the master already, whole.
    matrix = program.matrix(program.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev))
    cost = lp_mod._cost_vector(program, ch, MAX_THROUGHPUT, 1e-6)
    duals = np.asarray(solver._highs.getSolution().row_dual)
    costs, arcs = program.flow.cheapest_paths(cost - matrix.T @ duals)
    negative = arcs[costs < -ColumnGenSolver.PRICING_TOL]
    assert negative.size
    assert np.isin(negative[negative >= 0], solver._active).all()
    assert x[negative[negative >= 0]] == pytest.approx(1.0)


# -- the round cap is a fallback that shows -----------------------------------


@pytest.mark.parametrize(
    "build", [te_replan_model, regional_model, solver_farm_bench_model]
)
def test_no_solve_of_the_measured_models_reaches_the_round_cap(build):
    """Hitting ``MAX_ROUNDS`` would still end "optimal", through
    ``linprog`` at three times the cost: the counter says it did not,
    cold, warm and after churn, with rounds to spare."""
    metrics = MetricsRegistry()
    model = build()
    rng = random.Random(0)

    def demands(model):
        return rescaled_demands(model, rng)

    def churned(model):
        remove_and_add(model)
        return model

    rounds = []
    for change in (None, demands, None, churned, demands):
        if change is not None:
            model = change(model)
        assert solve_chain_routing_lp(model, MAX_THROUGHPUT, metrics=metrics).ok
        rounds.append(cached_program().cg_solver.last_rounds)
    assert metrics.counter("lp.colgen_fallbacks").value == 0
    assert max(rounds) <= ColumnGenSolver.MAX_ROUNDS // 3, rounds
    assert matrix_cache_stats() == {
        "matrix_reuse_hits": 3, "matrix_rebuilds": 2, "cached_structures": 2,
    }
