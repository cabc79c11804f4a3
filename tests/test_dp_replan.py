"""SB-DP re-plans replay the unchanged prefix of the last run.

``route_chains_dp`` leaves a trail on the substrate columns it routed
over; a later run on the same columns replays the longest prefix of
equal chains and routes the rest.  Every warm run here is compared with
the same call on a freshly built substrate: flows (with their order),
``unrouted``, ``paths_computed`` and the residual arrays, with ``==``.
Each case also pins how many chains were replayed, so a trail that is
never read, or read past the first changed chain, shows.
"""

import random

import pytest

from repro.controller import GlobalSwitchboard, fail_link
from repro.core import dp as dp_mod
from repro.core.dp import DpConfig, route_chains_dp
from repro.core.model import VNF, Chain, CloudSite, NetworkModel
from repro.dataplane import DataPlane
from repro.topology.backbone import build_backbone
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.workload import WorkloadConfig, generate_workload


def pressed_model() -> NetworkModel:
    """Ten chains on eight cities with capacities tight enough that
    chains take several passes, and some stay (partly) unrouted."""
    cities = DEFAULT_CITIES[:8]
    config = WorkloadConfig(
        num_chains=10, num_vnfs=5, seed=3, cities=cities,
        total_traffic=150.0, site_capacity=100.0,
    )
    return generate_workload(config, build_backbone(cities))


def routed(model, config=None, chain_order=None):
    """``route_chains_dp``'s result, the residual arrays it left and the
    number of chains it replayed."""
    made, replayed = [], []

    class Recorded(dp_mod._DpRouter):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def replay(self, *args):
            replayed.append(args[0].chain.name)
            return super().replay(*args)

    original, dp_mod._DpRouter = dp_mod._DpRouter, Recorded
    try:
        result = route_chains_dp(model, config, chain_order)
    finally:
        dp_mod._DpRouter = original
    state = made[0].state
    seen = (
        [(key, list(flows.items())) for key, flows in result.solution.table().items()],
        list(result.unrouted.items()),
        result.paths_computed,
        state.vnf_load.tolist(),
        state.site_load.tolist(),
        state.link_load.tolist(),
    )
    return seen, len(replayed)


def cold(model, config=None, chain_order=None):
    """The same call on a copy of ``model`` with its own new columns."""
    fresh = model.copy_with_chains(model.chains.values())
    fresh.invalidate_substrate()
    seen, replayed = routed(fresh, config, chain_order)
    assert replayed == 0
    return seen


def assert_warm_is_cold(model, replays, config=None, chain_order=None):
    warm, replayed = routed(model, config, chain_order)
    assert warm == cold(model, config, chain_order)
    assert replayed == replays


def rescaled(model, position, factor=1.3):
    """A ``copy_with_chains`` model (same columns) whose chain at
    ``position`` carries ``factor`` times its demand."""
    return model.copy_with_chains(
        chain.scaled(factor) if i == position else chain
        for i, chain in enumerate(model.chains.values())
    )


def test_the_workload_makes_sb_dp_work():
    """Multi-pass, partial and unrouted chains must really come up."""
    (flows, unrouted, paths, *_), _ = routed(pressed_model())
    assert paths > 10  # more searches than chains
    assert any(len(stage) > 1 for _, stage in flows)
    assert any(0 < left < 1 for _, left in unrouted)
    assert any(left == 1 for _, left in unrouted)


def test_an_unchanged_rerun_replays_every_chain():
    model = pressed_model()
    first, _ = routed(model)
    again, replayed = routed(model)
    assert again == first == cold(model)
    assert replayed == len(model.chains)


@pytest.mark.parametrize("position", [0, 5, 9])
def test_a_demand_change_replays_the_chains_before_it(position):
    model = pressed_model()
    route_chains_dp(model)
    assert_warm_is_cold(rescaled(model, position), position)


def test_a_demand_change_after_another_replays_the_newer_trail():
    model = pressed_model()
    route_chains_dp(model)
    second = rescaled(model, 7)
    route_chains_dp(second)
    assert_warm_is_cold(rescaled(second, 3, factor=0.6), 3)


def test_removing_the_first_chain_replays_nothing():
    model = pressed_model()
    route_chains_dp(model)
    model.remove_chain(next(iter(model.chains)))
    assert_warm_is_cold(model, 0)


def test_an_addition_at_the_end_replays_every_earlier_chain():
    model = pressed_model()
    route_chains_dp(model)
    first = next(iter(model.chains.values()))
    model.add_chain(Chain("late", first.ingress, first.egress, first.vnfs, 4.0, 1.0))
    assert_warm_is_cold(model, len(model.chains) - 1)


def test_a_chain_order_replays_its_common_prefix():
    model = pressed_model()
    names = list(model.chains)
    route_chains_dp(model)
    swapped = names[:4] + [names[6], names[5], names[4]] + names[7:]
    assert_warm_is_cold(model, 4, chain_order=swapped)
    assert_warm_is_cold(model, 0, chain_order=names[::-1])
    assert_warm_is_cold(model, 0)  # the reversed run is the trail now


@pytest.mark.parametrize(
    "config",
    [DpConfig.latency_only(), DpConfig.one_hop(), DpConfig(max_paths_per_chain=1)],
    ids=["latency_only", "one_hop", "max_paths_per_chain"],
)
def test_a_config_change_replays_nothing(config):
    model = pressed_model()
    route_chains_dp(model)
    assert_warm_is_cold(model, 0, config)
    assert_warm_is_cold(model, len(model.chains), config)
    assert_warm_is_cold(model, 0)


def test_an_mlu_limit_set_in_place_replays_nothing():
    model = pressed_model()
    route_chains_dp(model)
    model.mlu_limit = 0.5
    assert_warm_is_cold(model, 0)


def swap_capacities(model, factor):
    """Replace every VNF entry by one with ``factor`` times its capacities."""
    for name, vnf in list(model.vnfs.items()):
        model.vnfs[name] = VNF(
            name, vnf.load_per_unit,
            {site: cap * factor for site, cap in vnf.site_capacity.items()},
        )


@pytest.mark.parametrize("invalidate", [True, False])
def test_a_catalog_swap_replays_nothing(invalidate):
    model = pressed_model()
    route_chains_dp(model)
    swap_capacities(model, 0.4)
    if invalidate:
        model.invalidate_substrate()
    assert_warm_is_cold(model, 0)


def test_fail_link_replays_nothing():
    model = pressed_model()
    (flows, *_), _ = routed(model)
    # A hop the routes take, between two distinct nodes.
    a, b = next(
        (src, dst) for _, stage in flows for (src, dst), _ in stage
        if model.endpoint_node(src) != model.endpoint_node(dst)
    )
    gs = GlobalSwitchboard(model, DataPlane(random.Random(1)))
    fail_link(gs, model.endpoint_node(a), model.endpoint_node(b))
    assert_warm_is_cold(model, 0)


def test_a_rescaled_substrate_starts_without_a_trail():
    model = pressed_model()
    route_chains_dp(model)
    clone = model.copy_with_capacities(
        [CloudSite(s.name, s.node, s.capacity / 2) for s in model.sites.values()],
        model.vnfs.values(),
        model.links.values(),
    )
    for chain in model.chains.values():
        clone.add_chain(chain)
    assert clone.substrate_columns().dp_trail is None
    assert_warm_is_cold(clone, 0)


def one_vnf_model(capacity: float) -> NetworkModel:
    return NetworkModel(
        nodes=["a", "b"],
        latency={("a", "b"): 10.0},
        sites=[CloudSite("S", "b", 100.0)],
        vnfs=[VNF("fw", 1.0, {"S": capacity})],
        chains=[Chain("c", "a", "b", ["fw"], 4.0, 0.0)],
    )


def test_a_catalog_swap_before_the_router_existed_is_seen():
    """The columns were read before the swap, the router after it: the
    router must not take the stale capacities for the current ones."""
    model = one_vnf_model(10.0)
    assert route_chains_dp(model).fully_routed
    model.vnfs["fw"] = VNF("fw", 1.0, {"S": 2.0})  # no invalidate_substrate()
    swapped = route_chains_dp(model)
    fresh = route_chains_dp(one_vnf_model(2.0))
    assert fresh.unrouted == {"c": 0.75}
    assert swapped.unrouted == fresh.unrouted
