"""Column generation holds routes, not arcs.

A column of ``ColumnGenSolver``'s master is one chain's ingress-to-egress
route -- the sum of its arcs' columns, on the rows that sum does not
cancel on -- and each round the structure's ``ChainFlow`` prices every
chain's two cheapest routes out of different last-front sites under the
current reduced costs.  What is checked:

- the pricing step is the minimum over *all* routes (brute-force
  enumeration), its second route the minimum over those through another
  last site, and conservation duals move neither: a route enters a
  conservation row with +1 and leaves it with -1;
- a route's column is the sum of its arcs' columns, exactly zero on the
  conservation rows;
- whatever the master started from -- nothing, the previous optimum's
  routes and basis, a predecessor's carried support -- and whichever
  objective, every solve ends on the optimum ``linprog`` finds for the
  whole arc-flow program, or is infeasible where it is, and the flows
  handed back conserve (Equation 5) to rounding; no module under
  ``repro`` holds ``linprog``;
- no route enters a master twice, and no solve of the measured shapes
  comes near the round cap;
- a partition without capacity and a chain without a usable route, both
  through the farm, are optima with slack coverage rows, not errors.
"""

import importlib
import pkgutil
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import repro
from repro.core import capacity as capacity_mod
from repro.core import lp as lp_mod
from repro.core.capacity import plan_cloud_capacity
from repro.core.highs import ColumnGenSolver
from repro.core.lp import LpObjective, matrix_cache_stats, solve_chain_routing_lp
from repro.core.model import VNF
from repro.scale import SolverFarm, farm as farm_mod
from repro.scale.partition import _scaled_substrate
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES
from tests.reference.brute import enumerate_paths
from tests.reference.capacity_scalar import plan_cloud_capacity_reference
from tests.reference.lp_scalar import solve_chain_routing_lp_reference
from tests.reference.route_columns import route_columns
from tests.reference.scalar_rows import run_linprog
from tests.test_column_pool import cached_program, remove_and_add
from tests.test_maintained_plan import solver_farm_bench_model
from tests.test_program_fingerprints import (
    program_matrix,
    regional_model,
    solver_matrix,
    te_replan_model,
)
from tests.test_vectorized_equivalence import make_model, small_models
from tests.test_warm_start_contract import rescaled_demands, share_vector

MAX_THROUGHPUT = LpObjective.MAX_THROUGHPUT


def refreshed_matrix(program, model):
    ch = model.chain_columns()
    return program_matrix(program, program.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev))


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
    """And the second route the minimum over those through another last site."""
    rng = np.random.default_rng(seed)
    program = lp_mod._RoutingProgram(model, MAX_THROUGHPUT, True)
    flow = program.flow
    matrix = refreshed_matrix(program, model)
    duals = rng.normal(size=matrix.shape[0])
    reduced = rng.normal(size=program.n_total) - matrix.T @ duals
    costs, arcs = flow.cheapest_paths(reduced)
    assert costs.shape == (flow.n_chains, 2)
    assert arcs.shape == (flow.n_chains, 2, flow.depth)

    def price(route):
        return reduced[list(route)].sum()

    for c, routes in enumerate(route_variables(model, flow).values()):
        found = tuple(arcs[c, 0][arcs[c, 0] >= 0])
        assert found in routes
        assert costs[c, 0] == pytest.approx(min(map(price, routes)), abs=1e-12)
        assert price(found) == pytest.approx(costs[c, 0], abs=1e-12)
        # The second: the cheapest route whose last arc leaves another site.
        others = [r for r in routes if r[-1] != found[-1]]
        if not others:
            assert costs[c, 1] == np.inf
            continue
        second = tuple(arcs[c, 1][arcs[c, 1] >= 0])
        assert second in others
        assert costs[c, 1] == pytest.approx(min(map(price, others)), abs=1e-12)
        assert price(second) == pytest.approx(costs[c, 1], abs=1e-12)

    # The telescoping argument: MAX_THROUGHPUT's equality rows are the
    # conservation rows, and no dual on them moves any route's cost.
    n_cons = len(program.b_eq)
    assert n_cons == flow.n_cons
    shifted = duals.copy()
    shifted[len(duals) - n_cons:] += rng.normal(scale=10.0, size=n_cons)
    moved = reduced - matrix.T @ (shifted - duals)
    assert n_cons == 0 or not np.allclose(moved, reduced)
    assert flow.cheapest_paths(moved)[0] == pytest.approx(costs, abs=1e-9)


# -- (b) a route's column -----------------------------------------------------


@pytest.mark.parametrize("build", [make_model, te_replan_model, regional_model])
def test_a_route_column_is_the_sum_of_its_arcs_columns(build):
    model = build()
    lp_mod.clear_matrix_cache()
    assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
    program = cached_program()
    solver, matrix = program.cg_solver, refreshed_matrix(program, model)
    cons = np.setdiff1d(np.arange(matrix.shape[0]), solver.rows)
    assert len(cons) == program.flow.n_cons > 0
    assert len(solver.routes) > program.flow.n_chains

    whole = route_columns(matrix, solver.routes).toarray()
    for route, column in zip(solver.routes, whole.T):
        arcs = route[route >= 0]
        assert np.array_equal(column, matrix[:, arcs].toarray().sum(axis=1))
    assert not whole[cons].any()  # +1 and -1: exactly zero, not about
    # What the master holds is those columns without the rows of zeros.
    held = solver._highs.getLp()
    assert (held.num_col_, held.num_row_) == (len(solver.routes), len(solver.rows))
    assert held.a_matrix_.value_ == pytest.approx(
        route_columns(matrix[solver.rows], solver.routes).data
    )


# -- (c) the optimum of the whole program, from any first master ---------------


def checked_against_linprog(monkeypatch, oracle=True) -> list:
    """Every ``ColumnGenSolver.solve`` from here on has its flows checked
    and, with ``oracle``, is compared with ``linprog`` on the program it
    was handed: the same status, the same objective; returns the list the
    solvers that ran are appended to."""
    honest, ran = ColumnGenSolver.solve, []

    def solve(self, cost, values, n_cols, row_lower, row_upper, col_lower, col_upper):
        x, objective = honest(
            self, cost, values, n_cols, row_lower, row_upper, col_lower, col_upper
        )
        ran.append(self)
        matrix = solver_matrix(self, values, n_cols)
        if oracle:
            equal = row_lower == row_upper
            assert not col_lower.any()
            _x, reference, _seconds = run_linprog(
                cost, matrix[~equal], row_upper[~equal], matrix[equal],
                row_upper[equal], col_upper,
            )
            assert (objective is None) == (reference is None)  # infeasible
            if x is not None:
                assert objective == pytest.approx(reference, rel=1e-7, abs=1e-9)
        if x is None:
            return x, objective
        activity = matrix @ x
        cons = np.setdiff1d(np.arange(matrix.shape[0]), self.rows)
        assert len(cons) == self._flow.n_cons
        assert np.abs(activity[cons]).max(initial=0.0) <= 1e-12  # Equation 5
        scale = 1e-9 * (1.0 + np.abs(activity))
        assert (activity <= row_upper + scale).all()  # coverage <= 1 among them
        assert (activity >= row_lower - scale).all()
        # HiGHS's primal feasibility tolerance, on a route's value too.
        assert (x >= col_lower - 1e-7).all() and (x <= col_upper + 1e-7).all()
        return x, objective

    monkeypatch.setattr(ColumnGenSolver, "solve", solve)
    return ran


def routed_and_planned(model) -> None:
    """Both programs feasible at zero flow on ``model``."""
    assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
    total = sum(s.capacity for s in model.sites.values())
    assert plan_cloud_capacity(model, 0.25 * total).alpha >= 0.0


def routed_as_the_reference(model, objective) -> None:
    """SB-LP under ``objective`` and the cloud planner against the scalar
    references -- the full arc-flow programs, solved by ``linprog``: the
    same status, the reported objective within 1e-7."""
    ours = solve_chain_routing_lp(model, objective)
    reference = solve_chain_routing_lp_reference(model, objective)
    assert ours.status == reference.status
    assert ours.ok or objective is not MAX_THROUGHPUT
    if ours.ok:
        assert ours.objective == pytest.approx(reference.objective, rel=1e-7)
    budget = 0.25 * sum(s.capacity for s in model.sites.values())
    assert plan_cloud_capacity(model, budget).alpha == pytest.approx(
        plan_cloud_capacity_reference(model, budget).alpha, rel=1e-7
    )


@pytest.mark.parametrize("build", [make_model, te_replan_model, regional_model])
def test_every_solve_ends_on_the_linprog_optimum(build, monkeypatch):
    ran = checked_against_linprog(monkeypatch)
    lp_mod.clear_matrix_cache()
    capacity_mod._CACHE.clear()
    rng = random.Random(11)
    model = build()
    routed_and_planned(model)  # cold
    model = rescaled_demands(model, rng)
    routed_and_planned(model)  # the routes and basis of the last solve
    assert matrix_cache_stats()["matrix_rebuilds"] == 1
    remove_and_add(model)
    routed_and_planned(model)  # after chain churn
    assert matrix_cache_stats()["matrix_rebuilds"] == 2
    shared = _scaled_substrate(model, share_vector(model, rng))
    routed_and_planned(shared.copy_with_chains(model.chains.values()))
    assert matrix_cache_stats()["matrix_rebuilds"] == 2  # shares are data
    assert len(ran) == 8


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    objective=st.sampled_from(list(LpObjective)),
    load=st.sampled_from([1.0, 2.5]),
)
# Optimal, optimal, infeasible (the shares), optimal; and infeasible
# throughout, re-solved from a phase-I basis.
@example(seed=2, objective=LpObjective.MIN_MLU, load=1.0)
@example(seed=0, objective=LpObjective.MIN_LATENCY, load=1.0)
@example(seed=0, objective=LpObjective.MIN_MLU, load=2.5)
def test_routing_ends_on_the_linprog_optimum(seed, objective, load):
    """Ten chains on eight cities, cold, re-scaled, re-shared, churned.
    A demand-covered objective is infeasible wherever the demand exceeds
    what the sites can carry: at ``load`` 2.5, and often under a zero
    capacity share.

    Every solve's flows are checked on the program it was handed, its
    status and objective on the result: ``MIN_MLU``'s program adds a
    latency tiebreak 1e-6 the size of the MLU, which HiGHS's dual
    tolerance resolves to about 1e-6 relative -- in ``linprog``'s dual
    simplex as in the master -- while the MLU it reports agrees far
    inside 1e-7."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        checked_against_linprog(patch, oracle=False)
        lp_mod.clear_matrix_cache()
        capacity_mod._CACHE.clear()
        base = make_model(seed=seed, num_chains=10)
        base = base.copy_with_chains([c.scaled(load) for c in base.chains.values()])
        routed_as_the_reference(base, objective)
        routed_as_the_reference(rescaled_demands(base, rng), objective)
        shared = _scaled_substrate(base, share_vector(base, rng))
        routed_as_the_reference(shared.copy_with_chains(base.chains.values()), objective)
        remove_and_add(base)
        routed_as_the_reference(base, objective)


def test_no_module_under_repro_binds_linprog():
    """Column generation is the one solve path; ``linprog`` is the
    oracle's, in ``tests/reference/``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            module = importlib.import_module(info.name)
            assert linprog not in vars(module).values(), info.name


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cloud_capacity_sweep_ends_on_the_linprog_optimum(seed):
    """``a_s`` and ``alpha`` are not flows: columns of the first master,
    one budget after the other on the one cached structure."""
    capacity_mod._CACHE.clear()
    model = make_model(seed=seed, num_chains=10)
    total = sum(s.capacity for s in model.sites.values())
    for share in (0.0, 0.1, 0.5, 0.25):
        ours = plan_cloud_capacity(model, share * total)
        reference = plan_cloud_capacity_reference(model, share * total)
        assert ours.alpha == pytest.approx(reference.alpha, rel=1e-6)
        assert sum(ours.additional.values()) <= share * total * (1 + 1e-9) + 1e-9
    assert capacity_mod._CACHE.stats()["matrix_rebuilds"] == 1


# -- (d) one chain, one route: the degenerate optimum ---------------------------


def test_a_chain_routed_whole_on_one_route_ends_the_loop():
    cities = DEFAULT_CITIES[:10]
    model = generate_workload(
        WorkloadConfig(
            num_chains=2, num_vnfs=5, coverage=0.8, total_traffic=1.0,
            site_capacity=1e6, cities=cities, seed=5,
        ),
        build_backbone(cities),
    )
    result = solve_chain_routing_lp(model, MAX_THROUGHPUT)
    assert result.ok
    assert result.solution.throughput() == pytest.approx(model.total_demand())
    solver = cached_program().cg_solver
    # Each chain's cheapest route at zero duals carries all of it: the
    # first pricing round finds nothing better and is the last.
    assert solver.last_rounds == 1 and len(solver.routes) == 2


# -- (e) no route twice, and the round cap is far --------------------------------------


def sixty_four_chains():
    """The ``te_replan`` shape at four times the chains."""
    config = WorkloadConfig(
        num_chains=64, num_vnfs=12, coverage=0.5, seed=7, total_traffic=2000.0
    )
    return generate_workload(config, build_backbone(DEFAULT_CITIES))


@pytest.mark.parametrize(
    "build",
    [te_replan_model, regional_model, sixty_four_chains, solver_farm_bench_model],
)
def test_no_solve_of_the_measured_models_reaches_the_round_cap(build):
    """HiGHS stops at a dual tolerance of 1e-7, pricing at 1e-9: a route
    the master holds can price negative again and must not be re-added
    (the loop would spin to ``MAX_ROUNDS`` and raise), cold, warm and
    after churn, with rounds to spare."""
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
        assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
        solver = cached_program().cg_solver
        rounds.append(solver.last_rounds)
        assert len({route.tobytes() for route in solver.routes}) == len(solver.routes)
    assert max(rounds) <= ColumnGenSolver.MAX_ROUNDS // 3, rounds
    assert matrix_cache_stats() == {
        "matrix_reuse_hits": 3, "matrix_rebuilds": 2, "cached_structures": 2,
    }


# -- (f) nothing to route is an optimum, not an error --------------------------------


def test_a_partition_with_zero_capacity_shares_solves_to_nothing(monkeypatch):
    """Every contended budget of one partition cut to nothing: its routes
    are columns no flow fits on, its coverage rows stay slack, the master
    is feasible at zero -- an optimum of column generation, not a
    ``ColumnGenError``."""
    plan_of = farm_mod.partition_chains

    def starved(model, max_chains, previous=None):
        plan = plan_of(model, max_chains, previous)
        plan._shares[0] = dict.fromkeys(plan._shares[0], 0.0)
        return plan

    monkeypatch.setattr(farm_mod, "partition_chains", starved)
    model = te_replan_model()
    farm = SolverFarm(partition_size=4)
    result = farm.solve(model)
    assert result.ok and not result.fallback and len(result.solved) == 4
    assert result.solution.violations() == []
    starved_chains = farm.plan.partitions[0].chains
    routed = [result.solution.routed_fraction(name) for name in model.chains]
    assert max(result.solution.routed_fraction(c) for c in starved_chains) < 1.0
    assert max(routed) == pytest.approx(1.0)


def test_a_chain_whose_last_front_is_blocked_stays_unrouted():
    """No capacity at any site of one VNF: the chains through it have
    routes -- columns -- but none that can carry flow."""
    model = te_replan_model()
    blocked = next(iter(model.chains.values())).vnfs[-1]
    model = model.copy_with_vnfs([
        VNF(v.name, v.load_per_unit, dict.fromkeys(v.site_capacity, 0.0))
        if v.name == blocked else v
        for v in model.vnfs.values()
    ]).copy_with_chains(model.chains.values())
    stuck = [c.name for c in model.chains.values() if blocked in c.vnfs]
    assert 0 < len(stuck) < len(model.chains)
    for farm in (SolverFarm(partition_size=None), SolverFarm(4)):
        result = farm.solve(model)
        assert result.ok and not result.fallback
        assert result.solution.violations() == []
        for name in model.chains:
            routed = result.solution.routed_fraction(name)
            assert (routed == 0.0) if name in stuck else (routed >= 0.0)
        assert result.solution.throughput() > 0.0
