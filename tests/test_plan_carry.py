"""What the maintained plan carries between runs, and what drops it.

``PartitionPlan.key`` hands the farm a partition's cache key without
building its sub-model, and keeps it for as long as every chain of the
partition is the same object.  Contracts:

- the key is always ``submodel(model, index).digest()`` -- after a
  substrate edit (``fail_link`` / ``restore_link`` / ``fail_site`` /
  ``restore_site``), a switch of objective or ``enforce_mlu``, a chain
  replaced by an equal but not identical object, a re-scale and back
  (still served from the cache), a second model object, and a re-plan in
  which a seat gained or lost a chain -- and a farm built from nothing
  asks its cache for the same keys where it seats the chains the same;
- a farm that carries and one whose carry is wiped before every run
  return the same results over random rounds;
- an earlier ``FarmResult`` / ``FederatedPlan`` is a value: removing,
  adding or re-scaling chains afterwards does not change what it says.
"""

import random

import pytest

from repro.controller import (
    GlobalSwitchboard,
    fail_link,
    fail_site,
    restore_link,
    restore_site,
)
from repro.core.lp import LpObjective, clear_matrix_cache
from repro.core.model import Chain
from repro.dataplane import DataPlane
from repro.scale import SolutionCache, SolverFarm
from tests.test_feasibility_certificate import federation, rescale
from tests.test_maintained_plan import apply_step, coupled_model, random_chain
from tests.test_substrate_state import spur_model


class RecordingCache(SolutionCache):
    """Remembers the keys it was asked for."""

    def __init__(self):
        super().__init__()
        self.asked: list[str] = []

    def get(self, key):
        self.asked.append(key)
        return super().get(key)


def run(farm, model, objective=LpObjective.MAX_THROUGHPUT, call="resolve"):
    """One farm run: ``(result, the keys it looked up)``."""
    farm.cache.asked.clear()
    if call == "resolve":
        result = farm.resolve(model, [], objective)
    else:
        result = farm.solve(model, objective)
    return result, list(farm.cache.asked)


def from_scratch_keys(farm, model, objective=LpObjective.MAX_THROUGHPUT):
    """What the farm's keys are by definition: each partition's
    sub-model, built and digested whole."""
    return [
        f"{farm.plan.submodel(model, part.index).digest()}"
        f":{objective.value}:mlu={farm.enforce_mlu}"
        for part in farm.plan.partitions
    ]


def ring(seed=21, chains=9):
    rng = random.Random(seed)
    model = coupled_model(rng)
    for serial in range(chains):
        model.add_chain(random_chain(rng, f"c{serial:03d}"))
    return model, rng


def replace_chain(model, chain):
    model.remove_chain(chain.name)
    model.add_chain(chain)


def twin_of(chain: Chain) -> Chain:
    return Chain(
        chain.name, chain.ingress, chain.egress, chain.vnfs,
        chain.forward_traffic, chain.reverse_traffic,
    )


class TestCarryInvalidation:
    def farm_on_ring(self):
        model, rng = ring()
        farm = SolverFarm(partition_size=3, cache=RecordingCache())
        first, asked = run(farm, model, call="solve")
        assert first.ok and not first.exact and len(asked) == 3
        assert asked == from_scratch_keys(farm, model)
        return farm, model, rng

    def test_an_untouched_run_carries_every_key(self):
        farm, model, _rng = self.farm_on_ring()
        carried = {i: held for i, held in farm.plan._keys.items()}
        result, asked = run(farm, model)
        assert asked == from_scratch_keys(farm, model)
        assert result.cache_hits == 3 and not result.solved
        assert all(farm.plan._keys[i] is carried[i] for i in carried)

    def test_an_equal_but_not_identical_chain_drops_its_partitions_key(self):
        farm, model, _rng = self.farm_on_ring()
        carried = dict(farm.plan._keys)
        name = farm.plan.partitions[1].chains[0]
        original = model.chains[name]
        replace_chain(model, twin_of(original))
        assert model.chains[name] == original and model.chains[name] is not original
        result, asked = run(farm, model)
        assert asked == from_scratch_keys(farm, model)
        assert result.cache_hits == 3
        assert farm.plan._keys[1] is not carried[1]
        assert farm.plan._keys[0] is carried[0] and farm.plan._keys[2] is carried[2]

    def test_scaled_and_back_is_served_from_the_cache(self):
        farm, model, _rng = self.farm_on_ring()
        name = farm.plan.partitions[2].chains[1]
        original = model.chains[name]
        replace_chain(model, original.scaled(1.25))
        result, asked = run(farm, model)
        assert asked == from_scratch_keys(farm, model)
        assert result.solved == (2,) and result.cache_hits == 2
        replace_chain(model, twin_of(original))
        result, asked = run(farm, model)
        assert asked == from_scratch_keys(farm, model)
        assert not result.solved and result.cache_hits == 3

    def test_a_switch_of_objective_or_mlu_asks_for_other_keys(self):
        farm, model, _rng = self.farm_on_ring()
        _result, before = run(farm, model)
        result, asked = run(farm, model, LpObjective.MIN_LATENCY)
        assert asked == from_scratch_keys(farm, model, LpObjective.MIN_LATENCY)
        assert not set(asked) & set(before) and result.cache_hits == 0
        farm.enforce_mlu = False
        result, asked = run(farm, model)
        assert asked == from_scratch_keys(farm, model)
        assert all(key.endswith(":max_throughput:mlu=False") for key in asked)
        assert not set(asked) & set(before) and result.cache_hits == 0
        fresh = SolverFarm(
            partition_size=3, cache=RecordingCache(),
            enforce_mlu=False,
        )
        _result, scratch = run(fresh, model, call="solve")
        assert scratch == asked

    def test_a_second_model_object_is_keyed_for_itself(self):
        farm, model, rng = self.farm_on_ring()
        twin = model.copy_with_chains(model.chains.values())
        replace_chain(twin, twin.chains["c004"].scaled(0.8))
        result, asked = run(farm, twin)
        assert asked == from_scratch_keys(farm, twin)
        assert len(result.solved) == 1
        assert result.solution.model is twin
        # ... and the first model still gets its own keys
        result, asked = run(farm, model)
        assert asked == from_scratch_keys(farm, model)
        assert not result.solved

    def test_a_seat_that_gained_or_lost_a_chain_is_keyed_anew(self):
        farm, model, rng = self.farm_on_ring()
        before = farm.plan
        model.remove_chain(before.partitions[0].chains[0])
        model.add_chain(random_chain(rng, "c100"))
        result, asked = run(farm, model, call="solve")
        assert farm.plan is not before and not farm.plan._keys.keys() - {0, 1, 2}
        assert asked == from_scratch_keys(farm, model)
        assert result.ok and result.solution.violations() == []

    @pytest.mark.parametrize("edit", ["link", "site"])
    def test_a_substrate_edit_drops_the_plan_and_its_keys(self, edit):
        model = spur_model()
        farm = SolverFarm(partition_size=2, cache=RecordingCache())
        _first, healthy = run(farm, model, call="solve")
        gs = GlobalSwitchboard(model, DataPlane(random.Random(1)))
        fail, restore = {
            "link": (lambda: fail_link(gs, "b", "c"), lambda: restore_link(gs, "b", "c")),
            "site": (lambda: fail_site(gs, "A"), lambda: restore_site(gs, "A", 1000.0, {"fw": 60.0})),
        }[edit]
        plan = farm.plan
        fail()
        result, asked = run(farm, model)
        assert farm.plan is not plan and result.ok
        assert asked == from_scratch_keys(farm, model)
        assert not set(asked) & set(healthy)
        fresh = SolverFarm(partition_size=2, cache=RecordingCache())
        _result, scratch = run(fresh, model, call="solve")
        assert scratch == asked
        plan = farm.plan
        restore()
        result, asked = run(farm, model)
        assert farm.plan is not plan
        assert asked == from_scratch_keys(farm, model) == healthy
        assert not result.solved  # the healthy substrate's results are cached


def comparable(result):
    return (
        result.status, result.objective, result.solved, result.cache_hits,
        result.exact, result.fallback,
        {
            index: (r.partition_index, r.chains, r.status, r.objective, r.flows)
            for index, r in result.results.items()
        },
    )


def test_a_carrying_farm_and_a_forgetful_one_agree_over_random_rounds():
    """The two share nothing: each has its own cache and plan, and the
    process-wide LP structures (whose warm solvers pick the vertex of a
    degenerate optimum) are dropped before every run of either."""
    rng = random.Random(33)
    model, _ = ring(seed=34, chains=8)
    carrying = SolverFarm(partition_size=3)
    forgetful = SolverFarm(partition_size=3)
    for serial in range(99, 130):
        if serial >= 100:
            step = rng.choice(["scale", "scale", "scale", "add", "remove", "flip"])
            apply_step(model, rng, step, serial)
        call = rng.choice(["solve", "resolve"])
        results = []
        for farm in (carrying, forgetful):
            clear_matrix_cache()
            if farm is forgetful and farm.plan is not None:
                farm.plan._keys.clear()
            if call == "solve":
                results.append(farm.solve(model))
            else:
                results.append(farm.resolve(model, []))
        assert comparable(results[0]) == comparable(results[1]), serial
        assert results[0].solution._flows == results[1].solution._flows
        assert results[0].solution.violations() == []
    clear_matrix_cache()


# -- a plan is a value ------------------------------------------------------


def readings(plan):
    """Everything an earlier plan can be asked."""
    out = {}
    for region, result in plan.per_region.items():
        solution = result.solution
        if solution is None:
            continue
        out[region] = (
            solution.violations(),
            solution.throughput(),
            {name: solution.routed_fraction(name) for name in solution.chains},
            sorted(solution.vnf_site_loads().items()),
        )
    return out


def test_an_earlier_plan_reads_the_same_after_remove_submit_and_rescale():
    coordinator = federation()
    rng = random.Random(2)
    first = coordinator.plan_all()
    before = readings(first)
    intra = sorted(coordinator._intra)
    gone = coordinator.model.chains[intra[0]]
    # fails at the parent commit: the merged solution read the live
    # regional model, so ``violations()`` raised KeyError on the removed
    # chain and ``throughput()`` silently stopped counting it
    coordinator.remove(intra[0])
    assert readings(first) == before
    coordinator.submit(
        Chain("late", gone.ingress, gone.egress, gone.vnfs, 2.0, 0.5)
    )
    second = coordinator.resolve(coordinator.model, rescale(coordinator, rng, 3))
    assert second.ok and second.violations == []
    assert readings(first) == before
    middle = readings(second)
    coordinator.remove(intra[1])
    coordinator.resolve(coordinator.model, rescale(coordinator, rng, 3))
    assert readings(first) == before and readings(second) == middle
    assert any(intra[0] in r.solution.chains for r in first.per_region.values())
