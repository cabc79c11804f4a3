"""Self-tests for the federated invariant predicates.

As for the monolithic probes (``tests/test_chaos_invariants.py``), a
predicate is only worth running if it is *live*: corrupting the state
it watches must produce a violation, and the healthy deployment must
produce none.  Each test checks the clean state, corrupts exactly one
thing, and expects the predicate to fire.
"""

import dataclasses

import pytest

from repro.federation import (
    FederationChaosConfig,
    build_federation_deployment,
    check_atomicity,
    check_capacity_safety,
    check_ledger_consistency,
    check_no_lost_requests,
    check_single_active,
    check_stitching,
)


@pytest.fixture()
def deployment():
    """A quiet three-region deployment with its base population (four
    cross-shard chains among them) installed."""
    d = build_federation_deployment(FederationChaosConfig(
        seed=3, duration_s=30.0, pops=12, regions=3, chains=24,
        locality=0.5, link_flaps=0, partition=False,
        coordinator_crash=False, region_restart=False,
    ))
    assert d.primary._cross
    return d


def first_cross(coordinator):
    name = sorted(coordinator._cross)[0]
    return name, coordinator._cross[name]


def committed_entry(coordinator):
    """(regional, ledger, segment key) of one committed border entry."""
    for region in sorted(coordinator.regionals):
        regional = coordinator.regionals[region]
        for link_name in sorted(regional.ledgers):
            ledger = regional.ledgers[link_name]
            if ledger.committed:
                return regional, ledger, sorted(ledger.committed)[0]
    raise AssertionError("no committed border reservation")


class TestCoordinatorPredicates:
    def test_capacity_safety_fires_on_an_over_reserved_border(self, deployment):
        coordinator = deployment.primary
        assert check_capacity_safety(coordinator) == []
        _regional, ledger, key = committed_entry(coordinator)
        ledger.committed[key] = ledger.capacity + 1.0
        (problem,) = check_capacity_safety(coordinator)
        assert "over-reserved" in problem

    def test_atomicity_fires_on_a_partial_install(self, deployment):
        coordinator = deployment.primary
        assert check_atomicity(coordinator) == []
        name, record = first_cross(coordinator)
        seg = record.segments[-1]
        del coordinator.regionals[seg.region]._committed[seg.chain.name]
        (problem,) = check_atomicity(coordinator)
        assert f"chain {name!r}" in problem and "partial install" in problem

    def test_ledger_consistency_fires_on_a_drifted_reservation(self, deployment):
        coordinator = deployment.primary
        assert check_ledger_consistency(coordinator) == []
        _regional, ledger, key = committed_entry(coordinator)
        ledger.committed[key] += 1.0
        (problem,) = check_ledger_consistency(coordinator)
        assert repr(key) in problem and "segment says" in problem

    def test_stitching_fires_on_a_crossing_that_loses_demand(self, deployment):
        coordinator = deployment.primary
        assert check_stitching(coordinator) == []
        name, record = first_cross(coordinator)
        first = record.segments[0]
        ((link_name, amount),) = first.border_demands
        halved = dataclasses.replace(
            first, border_demands=((link_name, amount / 2),)
        )
        coordinator._cross[name] = dataclasses.replace(
            record, segments=(halved, *record.segments[1:])
        )
        (problem,) = check_stitching(coordinator)
        assert f"border {link_name!r} reserves" in problem


class TestNodePredicates:
    def test_single_active_fires_on_two_live_coordinators(self, deployment):
        d = deployment
        assert check_single_active(d.coordinators, d.net) == []
        d.standby.active = True
        (problem,) = check_single_active(d.coordinators, d.net)
        assert "multiple active coordinators" in problem

    def test_no_lost_requests_fires_on_a_forgotten_submission(self, deployment):
        d = deployment
        chain = d.live_chains[0]
        region = d.primary.shard_map.region_of(d.model, chain.ingress)
        node = d.region_nodes[region]
        node.submit(chain)
        d.net.run(until=10.0)
        assert chain.name in node.outcomes
        nodes = list(d.region_nodes.values())
        assert check_no_lost_requests(nodes, d.active_coordinator, final=True) == []
        del node.outcomes[chain.name]
        (problem,) = check_no_lost_requests(nodes, d.active_coordinator)
        assert f"{chain.name!r} neither queued nor resolved" in problem
