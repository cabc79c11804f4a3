"""What a solve on a cached program promises.

A cached routing program is shared by every model of the same structure
(``NetworkModel.structure_digest``: chains with their demand pattern,
topology, deployment sets -- no demand and no capacity magnitude) and
starts from the basis its last solve ended on.  Demands and capacities
are both *data*, refreshed at every solve.  The promise:

- the refreshed right-hand side is exactly the one a program built for
  the model from nothing has;
- the warm solve is optimal within solver tolerance -- objective within
  1e-6 relative of a cold solve, same carried demand, no violation --
  but not necessarily on the same vertex of a degenerate optimum (the
  1e-6 latency tiebreak of ``MAX_THROUGHPUT`` is below HiGHS's
  tolerance from some bases, see ``test_the_tiebreak_vertex_is_not_promised``);
- ``MIN_MLU`` alone is keyed on the capacities too (bandwidths are the
  coefficients of its ``beta`` column).
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import lp as lp_mod
from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    matrix_cache_stats,
    solve_chain_routing_lp,
)
from repro.core.model import CloudSite, Link, NetworkModel, VNF
from repro.scale.partition import _scaled_substrate
from tests.reference.lp_scalar import scalar_program
from tests.test_core_lp import small_model
from tests.test_vectorized_equivalence import make_model


def rescaled_demands(model: NetworkModel, rng: random.Random) -> NetworkModel:
    """Same chains in the same order, a third of them at other demands."""
    return model.copy_with_chains([
        chain.scaled(rng.choice([0.7, 1.3])) if rng.random() < 0.34 else chain
        for chain in model.chains.values()
    ])


def rescaled_capacities(model: NetworkModel, rng: random.Random) -> NetworkModel:
    """Same topology and chains, every capacity at 0.85 - 1.2 of itself."""
    def factor():
        return rng.uniform(0.85, 1.2)

    sites = [CloudSite(s.name, s.node, s.capacity * factor()) for s in model.sites.values()]
    vnfs = [
        VNF(v.name, v.load_per_unit,
            {site: cap * factor() for site, cap in v.site_capacity.items()})
        for v in model.vnfs.values()
    ]
    links = [
        Link(k.name, k.src, k.dst, k.bandwidth * factor(), k.background)
        for k in model.links.values()
    ]
    return model.copy_with_capacities(sites, vnfs, links).copy_with_chains(
        model.chains.values()
    )


CHANGES = {
    "demand": rescaled_demands,
    "capacity": rescaled_capacities,
    "both": lambda model, rng: rescaled_capacities(rescaled_demands(model, rng), rng),
}


def rebuilds() -> int:
    return matrix_cache_stats()["matrix_rebuilds"]


@pytest.mark.parametrize("change", sorted(CHANGES))
@pytest.mark.parametrize("objective", list(LpObjective))
def test_warm_equals_cold_within_tolerance(objective, change):
    rng = random.Random(f"{objective.value}-{change}")
    base = make_model()
    assert solve_chain_routing_lp(base, objective).ok
    assert rebuilds() == 1
    for _ in range(3):  # each warm solve starts where the previous ended
        model = CHANGES[change](base, rng)
        before = rebuilds()
        warm = solve_chain_routing_lp(model, objective)
        keyed_on_capacity = objective is LpObjective.MIN_MLU and change != "demand"
        assert rebuilds() - before == keyed_on_capacity
        clear_matrix_cache()
        cold = solve_chain_routing_lp(model, objective)
        assert warm.ok and cold.ok
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
        assert warm.solution.violations() == []
        assert warm.solution.throughput() == pytest.approx(
            cold.solution.throughput(), rel=1e-6
        )
        clear_matrix_cache()
        solve_chain_routing_lp(base, objective)


def test_the_tiebreak_vertex_is_not_promised():
    """Both routes of ``c1`` carry all of it; ``a -> B`` is the shorter.
    From the basis a much larger demand left behind, HiGHS stops on the
    longer one: optimal within its tolerance, another vertex."""
    solve_chain_routing_lp(small_model(chain_demand=100.0), LpObjective.MAX_THROUGHPUT)
    warm = solve_chain_routing_lp(small_model(), LpObjective.MAX_THROUGHPUT)
    assert matrix_cache_stats()["matrix_reuse_hits"] == 1
    clear_matrix_cache()
    cold = solve_chain_routing_lp(small_model(), LpObjective.MAX_THROUGHPUT)
    assert cold.solution.fraction("c1", 1, "a", "B") == pytest.approx(1.0, abs=1e-4)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
    assert warm.solution.throughput() == pytest.approx(cold.solution.throughput())
    assert warm.solution.violations() == []


# -- capacity shares are right-hand side -----------------------------------


def share_vector(model: NetworkModel, rng: random.Random) -> dict:
    """A share in (0, 1] of every budget; one (VNF, site) share of zero
    and one link share of zero, which blocks the link."""
    shares: dict = {("site", s): rng.uniform(0.2, 1.0) for s in model.sites}
    for vnf in model.vnfs.values():
        for site in vnf.site_capacity:
            shares[("vnf", vnf.name, site)] = rng.uniform(0.2, 1.0)
    for link in model.links:
        shares[("link", link)] = rng.uniform(0.2, 1.0)
    vnf = rng.choice(sorted(model.vnfs))
    shares[("vnf", vnf, rng.choice(sorted(model.vnfs[vnf].site_capacity)))] = 0.0
    shares[("link", rng.choice(sorted(model.links)))] = 0.0
    return shares


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000), objective=st.sampled_from(list(LpObjective)))
# Draws whose MIN_MLU programs ``linprog`` did not return from (509) or
# returned from in about a second (708): infeasible, a zero capacity share.
@example(seed=509, objective=LpObjective.MIN_MLU)
@example(seed=509, objective=LpObjective.MIN_LATENCY)
@example(seed=509, objective=LpObjective.MAX_THROUGHPUT)
@example(seed=708, objective=LpObjective.MIN_MLU)
@example(seed=708, objective=LpObjective.MIN_LATENCY)
@example(seed=708, objective=LpObjective.MAX_THROUGHPUT)
# Its third draw floors a link to a 4e-7 share, which bounds beta: dual
# simplex stalls on that phase-I master (primal does not).
@example(seed=29, objective=LpObjective.MIN_MLU)
# While a zero link share was floored to 1e-9 of the bandwidth, beta's
# column spanned 4e-7 to 399 (22171): the warm phase I stopped short,
# within HiGHS's dual tolerance, and called infeasible what the cold one
# solved.  56401 is another draw of the same kind.
@example(seed=22171, objective=LpObjective.MIN_MLU)
@example(seed=56401, objective=LpObjective.MIN_MLU)
# The cold phase-I master of its draw ends in HiGHS status kUnknown at
# pricing round 10 (the one failing MIN_MLU seed in 0-299).
@example(seed=205, objective=LpObjective.MIN_MLU)
def test_shares_reach_the_program_as_right_hand_side(seed, objective):
    shares_round_trip(seed, objective)


def test_shares_sweep(request):
    """The nightly lane's sweep of the property above: seeds 0-199, every
    objective, three share draws each (warm and cold agree on all 1 800
    since a zero share stopped being floored)."""
    if request.config.getoption("hypothesis_profile", None) != "nightly":
        pytest.skip("the nightly lane's sweep (--hypothesis-profile=nightly)")
    for seed in range(200):
        for objective in LpObjective:
            shares_round_trip(seed, objective)


def shares_round_trip(seed, objective):
    """Three share draws of ``seed``: the cached program's right-hand side
    is a fresh build's and the scalar reference's, and a warm solve
    agrees with a cold one."""
    rng = random.Random(seed)
    clear_matrix_cache()
    base = make_model(num_chains=10)
    chains = list(base.chains.values())
    solve_chain_routing_lp(base, objective)
    for _ in range(3):
        shares = share_vector(base, rng)
        model = _scaled_substrate(base, shares).copy_with_chains(chains)
        zeroed = [k for k in model.links.values() if k.bandwidth == 0.0]
        assert len(zeroed) == 1
        before = rebuilds()
        cached = lp_mod._structure_for(model, objective, None)
        assert rebuilds() - before == (objective is LpObjective.MIN_MLU)
        sub = model.substrate_columns()
        fresh = lp_mod._RoutingProgram(model, objective)
        assert np.array_equal(cached.bounds(sub), fresh.bounds(sub))
        reference = scalar_program(model, objective, True, 1e-6)
        assert np.max(np.abs(cached.bounds(sub) - reference.b_ub)) <= 1e-9
        warm = solve_chain_routing_lp(model, objective)
        clear_matrix_cache()
        cold = solve_chain_routing_lp(model, objective)
        assert warm.status == cold.status
        if cold.ok:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-7)
            # MIN_MLU's beta is free; and at these loads (about 1e3)
            # HiGHS's own feasibility tolerance is 1e-6 absolute, cold too.
            if objective is not LpObjective.MIN_MLU:
                assert warm.solution.violations() == []
        clear_matrix_cache()
        solve_chain_routing_lp(base, objective)
