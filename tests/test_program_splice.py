"""A churned program is spliced from its predecessor's columns.

On a structure-cache miss a program copies the columns of every chain
its predecessor -- the cached program of the same kind sharing the most
chains -- holds as well (same name, block shape and zero/non-zero stage
demands, on the same capacity-free substrate), and derives only the
other chains' entries (``ChainFlow``, ``Program.freeze``).  The contract:
whatever the chain-set change, the spliced program equals a build from
nothing bit for bit -- pattern, refreshed data, right-hand sides, cost,
the column-generation master's kept pattern and the per-variable arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import capacity as capacity_mod
from repro.core import lp as lp_mod
from repro.core.lp import LpObjective, clear_matrix_cache, matrix_cache_stats
from repro.core.model import Chain
from tests.test_program_fingerprints import _turned, te_replan_model
from tests.test_vectorized_equivalence import make_model

#: Every routing objective and the cloud-capacity program.
KINDS = [*LpObjective, "cloud"]


def build(model, kind, prior=None):
    if kind == "cloud":
        return capacity_mod._CloudProgram(model, prior)
    return lp_mod._RoutingProgram(model, kind, prior)


def _bytes(array) -> tuple:
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


FLOW_ARRAYS = (
    "var_stage", "var_src_ep", "var_dst_ep", "var_latency", "stage1_vars",
    "cons_chain", "cons_start", "chain_first", "pair_vnf",
    "pair_site", "load_sites", "load_links", "pair_key", "site_key",
    "link_key", "_var",
)


def assert_same(spliced, fresh, model, kind) -> None:
    """``spliced`` and ``fresh`` are the same program, bit for bit."""
    ch, sub = model.chain_columns(), model.substrate_columns()
    for name in ("indices", "indptr", "b_ub", "b_eq"):
        assert _bytes(getattr(spliced, name)) == _bytes(getattr(fresh, name)), name
    if kind == "cloud":
        for a, b in zip(spliced.refreshed(model, 7.5), fresh.refreshed(model, 7.5)):
            assert _bytes(a) == _bytes(b)
    else:
        demands = (ch.stage_total, ch.stage_fwd, ch.stage_rev)
        assert _bytes(spliced.refresh(*demands)) == _bytes(fresh.refresh(*demands))
        assert _bytes(spliced.bounds(sub)) == _bytes(fresh.bounds(sub))
        assert _bytes(lp_mod._cost_vector(spliced, ch, kind)) == _bytes(
            lp_mod._cost_vector(fresh, ch, kind)
        )
    mine, theirs = spliced.cg_solver, fresh.cg_solver
    for a, b in zip((mine.rows, mine._entries, *mine._pattern),
                    (theirs.rows, theirs._entries, *theirs._pattern)):
        assert _bytes(a) == _bytes(b)
    for name in FLOW_ARRAYS:
        assert _bytes(getattr(spliced.flow, name)) == _bytes(getattr(fresh.flow, name)), name
    assert spliced.flow.chain_blocks == fresh.flow.chain_blocks


def _identity(chain: Chain) -> tuple:
    """What a chain's columns depend on besides the substrate."""
    return (chain.ingress, chain.egress, chain.vnfs,
            tuple(w > 0 for w in chain.forward_traffic),
            tuple(v > 0 for v in chain.reverse_traffic))


def expected_reuse(before: dict, model) -> int:
    return sum(
        1 for name, chain in model.chains.items()
        if name in before and _identity(before[name]) == _identity(chain)
    )


# -- chain-set changes -------------------------------------------------------


def _put(model, chains) -> None:
    for name in list(model.chains):
        model.remove_chain(name)
    for chain in chains:
        model.add_chain(chain)


def _with_stage(chain: Chain, stage: int, value: float) -> Chain:
    forward = list(chain.forward_traffic)
    forward[stage % len(forward)] = value
    return Chain(chain.name, chain.ingress, chain.egress, chain.vnfs, forward,
                 chain.reverse_traffic)


def change(model, spare: list, kind: str, pick: int) -> None:
    """One chain-set change; ``pick`` chooses the chain it touches."""
    chains = list(model.chains.values())
    at = pick % len(chains)
    if kind == "remove_first" and len(chains) > 1:
        chains = chains[1:]
    elif kind == "remove_middle" and len(chains) > 1:
        del chains[len(chains) // 2]
    elif kind == "remove_last" and len(chains) > 1:
        chains = chains[:-1]
    elif kind == "append":
        chains.append(spare.pop())
    elif kind == "replace":
        chains[at] = spare.pop()
    elif kind == "zero_stage":
        chains[at] = _with_stage(chains[at], pick, 0.0)
    elif kind == "unzero_stage":
        chains[at] = _with_stage(chains[at], pick, 3.0)
    elif kind == "reorder":
        chains.append(chains.pop(at))
    elif kind == "turn":  # same name, another shape
        chains[at] = _turned(chains[at], chains[at].name)
    elif kind == "reroute":
        # Half of one node pair's routing fractions: another substrate.
        pairs = sorted(model.routing)
        pair = pairs[pick % len(pairs)]
        model.routing[pair] = {link: f / 2 for link, f in model.routing[pair].items()}
        model.invalidate_substrate()
        return
    _put(model, chains)


CHANGES = ["remove_first", "remove_middle", "remove_last", "append", "replace",
           "zero_stage", "unzero_stage", "reorder", "turn", "reroute"]


def base_model():
    """Ten chains of a generated workload, and the rest as spares."""
    model = make_model(num_chains=18)
    chains = list(model.chains.values())
    _put(model, chains[:10])
    return model, chains[10:]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    steps=st.lists(
        st.tuples(st.sampled_from(CHANGES), st.integers(0, 1000)), min_size=1, max_size=4
    ),
)
def test_a_spliced_program_equals_a_fresh_build(kind, steps):
    model, spare = base_model()
    prior = build(model, kind)
    assert prior.flow.reused == 0
    for step, pick in steps:
        before = dict(model.chains)
        rerouted = step == "reroute"
        change(model, spare, step, pick)
        spliced = build(model, kind, prior)
        assert spliced.flow.reused == (0 if rerouted else expected_reuse(before, model))
        assert_same(spliced, build(model, kind), model, kind)
        prior = spliced


@pytest.mark.parametrize("kind", KINDS)
def test_a_predecessor_on_another_substrate_is_never_spliced(kind):
    """A program built before an in-place substrate edit -- one delay
    changed and the substrate invalidated, as ``fail_link`` does --
    hands nothing on, though no coefficient of its columns moved."""
    model, _spare = base_model()
    prior = build(model, kind)
    pair = next(p for p, delay in model._latency.items() if delay > 0)
    model._latency[pair] *= 2.0
    model.invalidate_substrate()
    spliced = build(model, kind, prior)
    assert spliced.flow.reused == 0
    assert_same(spliced, build(model, kind), model, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_a_chain_whose_stage_demand_flips_is_built_afresh(kind):
    model, _spare = base_model()
    prior = build(model, kind)
    chains = list(model.chains.values())
    chains[3] = _with_stage(chains[3], 1, 0.0)
    _put(model, chains)
    spliced = build(model, kind, prior)
    assert spliced.flow.reused == len(chains) - 1
    assert_same(spliced, build(model, kind), model, kind)


def test_a_te_replan_churn_miss_splices_15_of_16_chain_blocks():
    clear_matrix_cache()
    model = te_replan_model()
    lp_mod.solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    first = next(iter(model.chains.values()))
    model.remove_chain(first.name)
    model.add_chain(_turned(first, "appended"))
    rebuilds = matrix_cache_stats()["matrix_rebuilds"]
    result = lp_mod.solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    assert result.ok
    assert matrix_cache_stats()["matrix_rebuilds"] == rebuilds + 1  # still a miss
    program = list(lp_mod._CACHE._entries.values())[-1]
    assert (program.flow.n_chains, program.flow.reused) == (16, 15)
    clear_matrix_cache()
