"""What a re-plan round carries over, and what crosses the HiGHS boundary.

Three contracts of ``repro.core.highs`` / ``repro.core.formulation``:

- a structure-cache miss starts column generation from the *support* of
  the cached program sharing the most chains (same optimum as a cold
  solve, fewer pricing rounds, nothing that survives
  ``clear_matrix_cache()``);
- the restricted master reaches HiGHS through the array overload of
  ``passModel`` exactly as sliced;
- a call HiGHS rejects ends in ``linprog`` with the right optimum, never
  in a stale "optimal".
"""

import numpy as np
import pytest

from repro.core import highs as highs_backend
from repro.core import lp as lp_mod
from repro.core.lp import LpObjective, clear_matrix_cache, solve_chain_routing_lp
from repro.core.model import Chain
from repro.obs.registry import MetricsRegistry
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


def build_through_cache(model):
    """The model's program as a structure-cache miss leaves it: built,
    seeded from its predecessor, not yet solved."""
    program, cached = lp_mod._CACHE.get(
        (
            model.structure_digest(), model.substrate_columns().order,
            LpObjective.MAX_THROUGHPUT.value, True,
        ),
        lambda: lp_mod._RoutingProgram(model, LpObjective.MAX_THROUGHPUT, True),
    )
    assert not cached
    return program


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
        if build is te_replan_model:
            # 10-11 rounds from the seed columns, 6-8 from the support.
            assert carried_rounds < last_solver().last_rounds

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
        model = te_replan_model()
        solve(model)
        old = cached_program()
        support = old.cg_solver.support()
        assert 0 < len(support) and set(support) <= set(old.cg_solver._active)
        values = np.zeros(old.n_total)
        values[old.cg_solver._active] = old.cg_solver._values
        assert set(np.flatnonzero(values)) <= set(support)

        gone = next(iter(model.chains))
        remove_one(model)
        program = build_through_cache(model)
        shift = old.flow.chain_blocks[gone][1][-1]  # the first block left
        assert set(program.cg_solver._active) == set(program.seed_columns) | {
            int(c) - shift for c in support if c >= shift
        }

    def test_a_same_named_chain_of_another_shape_is_not_mapped(self):
        model = te_replan_model()
        solve(model)
        name, chain = next(iter(model.chains.items()))
        kept = list(model.chains)[1]
        reshaped = Chain(  # same name, one VNF fewer: another block shape
            name, chain.ingress, chain.egress, chain.vnfs[1:],
            chain.forward_traffic[1:], chain.reverse_traffic[1:],
        )
        model.remove_chain(name)
        changed = model.copy_with_chains([reshaped, *model.chains.values()])
        program = build_through_cache(changed)

        def started_with(chain_name):
            start, shape = program.flow.chain_blocks[chain_name]
            active = program.cg_solver._active
            return set(active[(active >= start) & (active < start + shape[-1])])

        def seeds_of(chain_name):
            start, shape = program.flow.chain_blocks[chain_name]
            seeds = program.seed_columns
            return set(seeds[(seeds >= start) & (seeds < start + shape[-1])])

        assert started_with(name) == seeds_of(name)
        assert started_with(kept) > seeds_of(kept)

    def test_clear_matrix_cache_forgets_the_predecessor(self):
        model = te_replan_model()
        solve(model)
        clear_matrix_cache()
        remove_one(model)
        solve(model)
        cold_rounds = last_solver().last_rounds
        assert cold_rounds >= 9  # the cold count, not the carried one


class _Rejecting:
    """A HiGHS instance whose ``passModel`` refuses everything."""

    def __init__(self, highs):
        self._highs = highs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, *args):
        return highs_backend._hc.HighsStatus.kError


class TestHighsBoundary:
    def test_restricted_master_arrives_as_sliced(self):
        model = te_replan_model()
        solve(model)
        program = cached_program()
        ch = model.chain_columns()
        matrix = program.matrix(
            program.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev)
        )
        n = program.n_total
        active = np.array([5, 3, 900, 17, 4000])
        solver = highs_backend.ColumnGenSolver(program.flow)
        solver._pass_restricted(
            np.arange(n, dtype=float), matrix,
            np.full(matrix.shape[0], -np.inf), np.ones(matrix.shape[0]),
            np.zeros(n), np.ones(n), active,
        )
        assert solver._highs.getNumCol() == len(active)
        assert solver._highs.getNumRow() == matrix.shape[0]
        assert solver._highs.getNumNz() == matrix[:, active].nnz
        lp = solver._highs.getLp()
        assert list(lp.col_cost_) == [5.0, 3.0, 900.0, 17.0, 4000.0]

    def test_rejected_model_lands_in_linprog_with_the_right_optimum(self):
        model = te_replan_model()
        solve(model)
        # New demands on the warm structure: a model HiGHS refuses would
        # leave the old one loaded, and run() would call *that* optimal.
        name, chain = list(model.chains.items())[-1]
        model.remove_chain(name)
        model.add_chain(chain.scaled(3.0))
        solver = last_solver()
        solver._highs = _Rejecting(solver._highs)
        metrics = MetricsRegistry()
        fallen = solve(model, metrics=metrics)
        assert solver._active is None and solver._basis is None
        assert metrics.counter("lp.colgen_fallbacks").value == 1

        clear_matrix_cache()
        metrics = MetricsRegistry()
        honest = solve(model, metrics=metrics)
        assert fallen.objective == pytest.approx(honest.objective, rel=1e-7)
        assert metrics.counter("lp.colgen_fallbacks").value == 0
