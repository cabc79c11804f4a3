"""What a re-plan round carries over, and what crosses the HiGHS boundary.

Three contracts of ``repro.core.highs`` / ``repro.core.formulation``:

- a structure-cache miss starts column generation from the *support* of
  the cached program sharing the most chains -- the routes its optimum
  left basic or non-zero, shifted to where the shared chains' blocks now
  sit (same optimum as a cold solve, fewer pricing rounds, nothing that
  survives ``clear_matrix_cache()``);
- the master reaches HiGHS through the array overload of ``passModel``,
  one column per route, on the rows a route does not cancel on;
- a call HiGHS rejects raises, never ends in a stale "optimal", and
  leaves a solver that starts the next solve cold.
"""

import numpy as np
import pytest

from repro.core import highs as highs_backend
from repro.core import lp as lp_mod
from repro.core.lp import LpObjective, clear_matrix_cache, solve_chain_routing_lp
from repro.core.model import Chain
from tests.test_program_fingerprints import regional_model, te_replan_model


def solve(model, **kwargs):
    result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT, **kwargs)
    assert result.ok
    return result


def cached_program():
    """The most recently used cached program."""
    return list(lp_mod._CACHE._entries.values())[-1]


def last_solver():
    return cached_program().cg_solver


def spare_chain(model, name):
    """A chain the model does not hold yet: the first one's shape, turned
    round, under a new name."""
    first = next(iter(model.chains.values()))
    return Chain(
        name, first.egress, first.ingress, first.vnfs[::-1],
        first.forward_traffic[::-1], first.reverse_traffic[::-1],
    )


def remove_one(model):
    model.remove_chain(next(iter(model.chains)))


def add_one(model):
    model.add_chain(spare_chain(model, "spare-a"))


def remove_and_add(model):
    model.add_chain(spare_chain(model, "spare-b"))
    model.remove_chain(next(iter(model.chains)))


CHURN = [remove_one, add_one, remove_and_add]


def routes_of(solver, flow, chain_name) -> set:
    """The chain's routes in the solver's master, relative to its block."""
    start, shape = flow.chain_blocks[chain_name]
    last = solver.routes[:, -1]
    mine = solver.routes[(last >= start) & (last < start + shape[-1])]
    return {tuple(route[route >= 0] - start) for route in mine}


class TestCarriedPool:
    @pytest.mark.parametrize("churn", CHURN)
    @pytest.mark.parametrize("build", [te_replan_model, regional_model])
    def test_same_optimum_as_a_cold_solve(self, build, churn):
        model = build()
        solve(model)
        churn(model)
        carried = solve(model)
        carried_rounds = last_solver().last_rounds
        assert carried.solution.violations() == []

        clear_matrix_cache()
        cold = solve(model)
        assert carried.objective == pytest.approx(cold.objective, rel=1e-7)
        cold_rounds = last_solver().last_rounds
        if build is te_replan_model:
            assert carried_rounds < cold_rounds
        else:  # a regional partition's cold master is two or three rounds
            assert carried_rounds <= cold_rounds

    def test_the_same_op_stream_twice_gives_equal_results(self):
        def stream():
            clear_matrix_cache()
            model = te_replan_model()
            out = []
            for churn in (None, *CHURN):
                if churn is not None:
                    churn(model)
                result = solve(model)
                out.append((result.objective, result.solution._flows))
            return out

        assert stream() == stream()

    def test_what_is_carried_is_the_support_next_to_the_seeds(self):
        """The seeds of a route master: every chain's cheapest route."""
        model = te_replan_model()
        solve(model)
        old = cached_program()
        support = old.cg_solver.support()
        assert 0 < len(support) < len(old.cg_solver.routes)
        assert {r.tobytes() for r in support} <= {
            r.tobytes() for r in old.cg_solver.routes
        }
        assert (support[:, -1] < old.n_flow).all()  # routes of chains only

        _gone, *kept = model.chains
        remove_one(model)
        solve(model)
        new = cached_program()
        assert new is not old
        for name in kept:
            start, shape = old.flow.chain_blocks[name]
            last = support[:, -1]
            mine = support[(last >= start) & (last < start + shape[-1])]
            carried = {tuple(route[route >= 0] - start) for route in mine}
            assert carried and carried <= routes_of(new.cg_solver, new.flow, name)

    def test_a_same_named_chain_of_another_shape_is_not_mapped(self):
        model = te_replan_model()
        solve(model)
        old = cached_program()
        name, chain = next(iter(model.chains.items()))
        reshaped = Chain(  # same name, one VNF fewer: another block shape
            name, chain.ingress, chain.egress, chain.vnfs[1:],
            chain.forward_traffic[1:], chain.reverse_traffic[1:],
        )
        model.remove_chain(name)
        changed = model.copy_with_chains([reshaped, *model.chains.values()])
        solve(changed)
        new = cached_program()
        stages = len(reshaped.vnfs) + 1
        assert all(len(r) == stages for r in routes_of(new.cg_solver, new.flow, name))
        kept = list(model.chains)[0]
        assert routes_of(old.cg_solver, old.flow, kept) & routes_of(
            new.cg_solver, new.flow, kept
        )

    def test_clear_matrix_cache_forgets_the_predecessor(self):
        model = te_replan_model()
        solve(model)
        remove_one(model)
        solve(model)
        carried_rounds = last_solver().last_rounds
        clear_matrix_cache()
        solve(model)
        assert last_solver().last_rounds > carried_rounds  # the cold count


class _Rejecting:
    """A HiGHS instance whose ``passModel`` refuses everything."""

    def __init__(self, highs):
        self._highs = highs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, *args):
        return highs_backend._hc.HighsStatus.kError


class TestHighsBoundary:
    def test_the_master_is_one_column_per_route_on_the_kept_rows(self):
        model = te_replan_model()
        solve(model)
        program = cached_program()
        solver = program.cg_solver
        lp = solver._highs.getLp()
        assert lp.num_col_ == len(solver.routes)
        assert lp.num_row_ == len(solver.rows)
        assert len(solver.rows) == len(program.b_ub)  # all but Equation 5's
        assert np.isinf(lp.col_upper_).all() and not np.any(lp.col_lower_)
        cost = lp_mod._cost_vector(
            program, model.chain_columns(), LpObjective.MAX_THROUGHPUT, 1e-6
        )
        assert list(lp.col_cost_) == pytest.approx(
            [cost[route[route >= 0]].sum() for route in solver.routes]
        )

    def test_a_rejected_model_raises_and_the_next_solve_is_cold(self):
        model = te_replan_model()
        solve(model)
        # New demands on the warm structure: a model HiGHS refuses would
        # leave the old one loaded, and run() would call *that* optimal.
        name, chain = list(model.chains.items())[-1]
        model.remove_chain(name)
        model.add_chain(chain.scaled(3.0))
        solver = last_solver()
        highs, solver._highs = solver._highs, _Rejecting(solver._highs)
        with pytest.raises(highs_backend.ColumnGenError, match="passModel"):
            solve(model)
        assert solver.routes is None and solver.support() is None
        assert solver._basis is None

        solver._highs = highs
        again = solve(model)
        again_rounds = solver.last_rounds
        clear_matrix_cache()
        honest = solve(model)
        assert again.objective == pytest.approx(honest.objective, rel=1e-7)
        assert again_rounds == last_solver().last_rounds  # the cold count
