"""A re-solve on a cached structure recomputes only what demand moves.

Two things a structure-cache hit no longer rebuilds, each against the
from-scratch build it replaces:

- the chain-stage table: the model's ``ChainColumns`` shares every
  structural array with the table the cached program was built from and
  reads only its demands (``ChainColumns.refilled``) -- field for field
  the table ``ChainColumns(model, sub)`` builds, values and dtypes, and
  ``certify`` / ``_assemble`` read the same from both; a structure
  change (churn, a stage demand flipping to zero) rebuilds it;
- the route columns: ``ColumnGenSolver`` keeps, next to its routes, a
  plan of how each route's column is summed from the kept entries
  (``highs._plan``), and its evaluation (``highs._columns``) is the
  scipy product with a 0/1 selection matrix
  (``tests/reference/route_columns.py``) bit for bit -- on random
  patterns and on every master of a ``te_replan`` and a
  ``federated_replan`` lap; ``_forget`` drops the plan with the routes.
"""

import importlib
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.core import highs as highs_backend
from repro.core import lp as lp_mod
from repro.core.columns import ChainColumns
from repro.core.formulation import _assemble, _kept, certify
from repro.core.highs import ColumnGenSolver, _columns, _plan
from repro.core.lp import LpObjective, clear_matrix_cache, solve_chain_routing_lp
from repro.core.model import Chain
from repro.scale.partition import _scaled_substrate
from tests.reference.route_columns import route_columns
from tests.test_column_pool import _Rejecting, cached_program, remove_and_add
from tests.test_program_fingerprints import te_replan_model
from tests.test_warm_start_contract import rescaled_demands, share_vector

MAX_THROUGHPUT = LpObjective.MAX_THROUGHPUT
LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


def same_bits(ours, reference) -> bool:
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(ours, reference)
    )


def oracle(values, indices, indptr, n_rows, routes) -> tuple:
    product = route_columns(
        csc_matrix((values, indices, indptr), shape=(n_rows, len(indptr) - 1)), routes
    )
    return product.indptr, product.indices, product.data


# -- the plan against the scipy product ---------------------------------------


def random_master(seed: int):
    """A canonical CSC pattern (int32, sorted rows per column) over
    ``n_flow`` flow columns and a few single columns, values drawn from a
    small set so that sums cancel to exactly zero, and routes of distinct
    flow columns behind ``-1`` pads, the single columns last."""
    rng = np.random.default_rng(seed)
    n_rows, n_flow, n_single = (int(n) for n in rng.integers([3, 4, 0], [30, 40, 4]))
    dense = rng.random((n_rows, n_flow + n_single)) < rng.uniform(0.1, 0.6)
    indptr = np.append(0, np.cumsum(dense.sum(axis=0))).astype(np.int32)
    indices = np.nonzero(dense.T)[1].astype(np.int32)
    values = rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0], size=len(indices))
    depth = int(rng.integers(1, 5))
    routes = np.full((int(rng.integers(0, 25)) + n_single, depth), -1, dtype=np.int64)
    for route in routes[: len(routes) - n_single]:
        length = int(rng.integers(1, depth + 1))
        route[depth - length:] = rng.choice(n_flow, size=length, replace=False)
    routes[len(routes) - n_single:, -1] = n_flow + np.arange(n_single)
    return values, indices, indptr, n_rows, routes, n_flow


def test_the_plan_is_the_scipy_product_bit_for_bit():
    """On 200 random masters -- between them routes crossing a row twice
    (a sum of several terms), sums that cancel to exactly zero (dropped),
    pads and single columns --, and admitted in one batch or two."""
    terms = cancelled = padded = single = 0
    for seed in range(200):
        values, indices, indptr, n_rows, routes, n_flow = random_master(seed)
        plan = _plan(indices, indptr, n_rows, routes)
        assert len(plan[0]) == len(routes)
        columns = _columns(plan, values)
        assert same_bits(columns, oracle(values, indices, indptr, n_rows, routes))
        cut = len(routes) // 2
        joined = tuple(map(np.concatenate, zip(
            _plan(indices, indptr, n_rows, routes[:cut]),
            _plan(indices, indptr, n_rows, routes[cut:]),
        )))
        assert same_bits(joined, plan)
        terms += int((plan[2] > 1).sum())
        cancelled += len(plan[1]) - len(columns[1])
        padded += int((routes[:, 0] < 0).sum())
        single += int((routes[:, -1] >= n_flow).sum())
    assert min(terms, cancelled, padded, single) > 0


def checked_masters(monkeypatch) -> dict:
    """From here on every ``passModel`` and ``addCols`` a solver makes has
    its route columns compared with the scipy product over the kept rows
    of the matrix it was handed; returns the counts of both calls."""
    honest, seen = ColumnGenSolver.solve, {"passModel": 0, "addCols": 0}

    class Checking:
        def __init__(self, solver, values):
            self._solver, self._highs = solver, solver._highs
            self._kept = values[solver._entries]

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def _reference(self, routes):
            solver = self._solver
            return oracle(self._kept, *solver._pattern, len(solver.rows), routes)

        def passModel(self, *args):
            k = args[0] - len(self._solver.routes)
            indptr, indices, data = self._reference(self._solver.routes)
            assert np.array_equal(args[11][k:], k + indptr)
            assert args[12][k:].tobytes() == indices.astype(np.int64).tobytes()
            assert args[13][k:].tobytes() == data.tobytes()
            seen["passModel"] += 1
            return self._highs.passModel(*args)

        def addCols(self, n, cost, lower, upper, nnz, starts, indices, data):
            ref = self._reference(self._solver.routes[-n:])
            assert same_bits((starts, indices, data), (ref[0][:-1], *ref[1:]))
            assert nnz == len(ref[2])
            seen["addCols"] += 1
            return self._highs.addCols(n, cost, lower, upper, nnz, starts, indices, data)

    def solve(self, cost, values, *bounds):
        highs, self._highs = self._highs, Checking(self, values)
        try:
            return honest(self, cost, values, *bounds)
        finally:
            self._highs = highs

    monkeypatch.setattr(ColumnGenSolver, "solve", solve)
    return seen


@pytest.mark.parametrize("name", ["te_replan", "federated_replan"])
def test_every_master_of_a_lap_is_the_scipy_product(name, monkeypatch):
    monkeypatch.syspath_prepend(str(LEDGER))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    seen = checked_masters(monkeypatch)
    lap = workload.lap(workload.generate(1, scale=0.5))
    assert not lap.failures
    assert seen["passModel"] > 5 and seen["addCols"] > 0


# -- the chain-stage table ------------------------------------------------------


def assert_same_table(ours: ChainColumns, scratch: ChainColumns) -> None:
    assert vars(ours).keys() == vars(scratch).keys()
    for field, value in vars(scratch).items():
        mine = vars(ours)[field]
        if isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype, field
            assert mine.tobytes() == value.tobytes(), field
        else:
            assert mine == value, field


def from_scratch(model) -> ChainColumns:
    return ChainColumns(model, model.substrate_columns())


def read_alike(model, table, scratch, rng) -> None:
    """``certify`` and ``_assemble`` say the same from both tables."""
    flow = cached_program().flow
    values = rng.random(flow.n_flow) * (rng.random(flow.n_flow) < 0.2)
    kept = _kept(flow, values)
    sub = model.substrate_columns()
    ours, reference = certify(sub, table, *kept), certify(sub, scratch, *kept)
    assert ours.excess == reference.excess
    assert ours.loads.tobytes() == reference.loads.tobytes()
    tables = []
    for chains in (table, scratch):
        model._chain_columns = chains
        tables.append(_assemble(model, *kept).table())
    model._chain_columns = table
    assert tables[0] == tables[1]


class TestChainTable:
    def test_a_demand_only_change_refills_the_demands(self):
        rng = random.Random(3)
        model = te_replan_model()
        assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
        template = cached_program().flow.chains
        assert model.chain_columns() is template  # built, not refilled
        moved = rescaled_demands(model, rng)
        assert solve_chain_routing_lp(moved, MAX_THROUGHPUT).ok
        assert lp_mod.matrix_cache_stats()["matrix_reuse_hits"] == 1
        table = moved.chain_columns()
        assert table is not template and table.stage_chain is template.stage_chain
        assert table.src_pool is template.src_pool
        assert not np.array_equal(table.stage_total, template.stage_total)
        scratch = from_scratch(moved)
        assert_same_table(table, scratch)
        read_alike(moved, table, scratch, np.random.default_rng(3))

    def test_a_partition_template_refills_on_its_rescaled_substrate(self):
        rng = random.Random(5)
        model = te_replan_model()
        assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
        template = cached_program().flow.chains
        shared = _scaled_substrate(model, share_vector(model, rng))
        assert shared.substrate_columns() is not model.substrate_columns()
        part = shared.copy_with_chains(
            chain.scaled(1.1) for chain in model.chains.values()
        )
        assert solve_chain_routing_lp(part, MAX_THROUGHPUT).ok
        assert lp_mod.matrix_cache_stats()["matrix_rebuilds"] == 1
        table = part.chain_columns()
        assert table.dst_pool is template.dst_pool
        scratch = from_scratch(part)
        assert_same_table(table, scratch)
        read_alike(part, table, scratch, np.random.default_rng(5))

    @pytest.mark.parametrize("change", ["churn", "zero stage"])
    def test_a_structure_change_rebuilds(self, change):
        model = te_replan_model()
        assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
        old = cached_program().flow.chains
        if change == "churn":
            remove_and_add(model)
        else:
            name, chain = next(iter(model.chains.items()))
            assert chain.forward_traffic[-1] > 0
            flipped = Chain(
                name, chain.ingress, chain.egress, chain.vnfs,
                chain.forward_traffic[:-1] + (0.0,), chain.reverse_traffic,
            )
            model = model.copy_with_chains(
                flipped if c.name == name else c for c in model.chains.values()
            )
        assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
        assert lp_mod.matrix_cache_stats()["matrix_rebuilds"] == 2
        table = model.chain_columns()
        assert table is cached_program().flow.chains
        assert table.stage_chain is not old.stage_chain
        assert_same_table(table, from_scratch(model))


# -- the plan's lifetime --------------------------------------------------------


def test_a_forgotten_master_rebuilds_its_plan(monkeypatch):
    """After a ``ColumnGenError`` the solver has dropped its routes and
    their plan; the next solve on the same program builds both again and
    ends where a fresh program does, bit for bit."""
    honest, solved = ColumnGenSolver.solve, []

    def recording(self, cost, values, *bounds):
        x, objective = honest(self, cost, values, *bounds)
        solved.append((x, objective, values))
        return x, objective

    monkeypatch.setattr(ColumnGenSolver, "solve", recording)
    model = te_replan_model()
    assert solve_chain_routing_lp(model, MAX_THROUGHPUT).ok
    moved = rescaled_demands(model, random.Random(8))
    program = cached_program()
    solver = program.cg_solver
    highs, solver._highs = solver._highs, _Rejecting(solver._highs)
    with pytest.raises(highs_backend.ColumnGenError, match="passModel"):
        solve_chain_routing_lp(moved, MAX_THROUGHPUT)
    assert solver.routes is None and solver._plan is None
    solver._highs = highs

    again = solve_chain_routing_lp(moved, MAX_THROUGHPUT)
    assert len(solver._plan[0]) == len(solver.routes)
    kept = solved[-1][2][solver._entries]
    assert same_bits(
        _columns(solver._plan, kept),
        oracle(kept, *solver._pattern, len(solver.rows), solver.routes),
    )
    clear_matrix_cache()
    fresh = solve_chain_routing_lp(moved, MAX_THROUGHPUT)
    assert again.objective == fresh.objective
    (x_again, objective_again, _), (x_fresh, objective_fresh, _) = solved[-2:]
    assert objective_again == objective_fresh
    assert x_again.tobytes() == x_fresh.tobytes()
