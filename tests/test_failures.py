"""Tests for site-failure recovery and demand re-optimization."""

import random

import pytest

from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
    fail_link,
    fail_site,
    reoptimize,
    restore_link,
    restore_site,
)
from repro.controller.failures import (
    FailureError,
    chains_through_link,
    chains_through_site,
)
from repro.core.capacity import plan_vnf_placement
from repro.core.dp import route_chains_dp
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, ModelError, NetworkModel, VNF
from repro.dataplane import DataPlane, FiveTuple, Packet
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import VnfService


def build_deployment(cap_a=40.0, cap_b=40.0):
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [
        CloudSite("A", "a", 100.0),
        CloudSite("B", "b", 100.0),
        CloudSite("C", "c", 100.0),
    ]
    vnfs = [VNF("fw", 1.0, {"A": cap_a, "B": cap_b})]
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(5))
    gs = GlobalSwitchboard(model, dp)
    for site in ("A", "B", "C"):
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    service = VnfService("fw", 1.0, {"A": cap_a, "B": cap_b})
    gs.register_vnf_service(service)
    edge = EdgeController("vpn")
    ingress = EdgeInstance("edge.A", "A", dp)
    egress = EdgeInstance("edge.C", "C", dp)
    edge.register_instance(ingress)
    edge.register_instance(egress)
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    return gs, service, ingress, egress


def spec(name="c1", demand=5.0, dst="20.0.0.0/24"):
    return ChainSpecification(
        name, "vpn", "in", "out", ["fw"],
        forward_demand=demand,
        src_prefix="10.0.0.0/24",
        dst_prefixes=[dst],
    )


class TestSiteFailure:
    def test_affected_chains_identified(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        used_sites = {
            dst for (_s, dst) in gs.router.solution.stage_flows("c1", 1)
        }
        used = used_sites.pop()
        assert chains_through_site(gs, used) == ["c1"]
        unused = ({"A", "B"} - {used}).pop()
        assert chains_through_site(gs, unused) == []

    def test_chain_rerouted_to_surviving_site(self):
        gs, service, ingress, egress = build_deployment()
        gs.create_chain(spec("c1"))
        # Find where it landed and fail that site.
        site = next(iter(
            dst for (_s, dst) in gs.router.solution.stage_flows("c1", 1)
        ))
        other = ({"A", "B"} - {site}).pop()
        report = fail_site(gs, site)
        assert report.affected_chains == ["c1"]
        assert report.carried_after["c1"] == pytest.approx(1.0)
        assert report.carried_after["c1"] >= report.carried_before["c1"]
        # Routing now uses the surviving site.
        flows = gs.router.solution.stage_flows("c1", 1)
        assert all(dst == other for (_s, dst) in flows)
        # And the data plane follows for new connections.
        packet = Packet(FiveTuple("10.0.0.9", "20.0.0.9", "tcp", 1, 80))
        ingress.ingress(packet)
        assert egress.delivered

    def test_capacity_released_at_failed_and_committed_at_new(self):
        gs, service, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        site = next(iter(
            dst for (_s, dst) in gs.router.solution.stage_flows("c1", 1)
        ))
        other = ({"A", "B"} - {site}).pop()
        fail_site(gs, site)
        assert service.committed(other) > 0
        assert service.pending_reservations() == 0

    def test_unrecoverable_when_no_capacity_left(self):
        gs, *_ = build_deployment(cap_a=40.0, cap_b=0.0)
        gs.create_chain(spec("c1"))
        report = fail_site(gs, "A")
        assert report.carried_after["c1"] < report.carried_before["c1"]
        assert report.carried_after["c1"] == 0.0
        assert report.recovery_ratio() == 0.0

    def test_partial_recovery_counts(self):
        # B can only carry half of what A carried.
        gs, *_ = build_deployment(cap_a=10.0, cap_b=5.0)
        gs.create_chain(spec("c1", demand=5.0))  # load 10 fits A exactly
        before = gs.installations["c1"].routed_fraction
        report = fail_site(gs, "A")
        assert report.carried_before["c1"] == pytest.approx(before)
        assert 0 < report.carried_after["c1"] < before
        assert 0 < report.recovery_ratio() < 1

    def test_unaffected_chain_untouched(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1", dst="20.0.0.0/24"))
        c1_site = next(iter(
            dst for (_s, dst) in gs.router.solution.stage_flows("c1", 1)
        ))
        other = ({"A", "B"} - {c1_site}).pop()
        report = fail_site(gs, other)
        assert report.affected_chains == []
        assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)

    def test_unknown_site_rejected(self):
        gs, *_ = build_deployment()
        with pytest.raises(FailureError):
            fail_site(gs, "nowhere")

    def test_restore_site_enables_extension(self):
        gs, service, *_ = build_deployment(cap_a=10.0, cap_b=10.0)
        gs.create_chain(spec("c1", demand=10.0))  # needs 20 load; has 20
        assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)
        fail_site(gs, "A")
        assert gs.installations["c1"].routed_fraction < 1.0
        restore_site(gs, "A", site_capacity=100.0, vnf_capacity={"fw": 10.0})
        gained = gs.extend_chain("c1")
        assert gained > 0
        assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)

    def test_restored_capacity_reaches_fresh_solvers(self):
        # Regression: fail_site / restore_site swapped catalogue entries
        # without invalidate_substrate(), so every columnar reader other
        # than the persistent router kept the failed site's zeros.
        gs, *_ = build_deployment(cap_a=40.0, cap_b=0.0)
        gs.create_chain(spec("c1"))
        fail_site(gs, "A")
        restore_site(gs, "A", 100.0, {"fw": 40.0})
        lp = solve_chain_routing_lp(gs.model, LpObjective.MAX_THROUGHPUT)
        assert lp.solution.routed_fraction("c1") == pytest.approx(1.0)
        dp = route_chains_dp(gs.model)
        assert dp.solution.routed_fraction("c1") == pytest.approx(1.0)

    def test_fail_and_restore_rebuild_the_substrate_views(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))  # lands on B, the shorter way round
        before = gs.model.substrate_columns()
        assert before._site_runs and before._transitions  # the install searched a path
        fail_site(gs, "B")
        failed = gs.model.substrate_columns()
        assert failed is not before
        assert failed.vnf_cap[0, 1] == 0.0
        # ...and the DP's per-sequence and per-front arrays went with the
        # old views: the re-route inside fail_site built its own.
        old = {id(part) for part in (*before._site_runs.values(), *before._transitions.values())}
        assert failed._site_runs and failed._transitions
        assert not old & {
            id(part) for part in (*failed._site_runs.values(), *failed._transitions.values())
        }
        restore_site(gs, "B", 100.0, {"fw": 40.0})
        restored = gs.model.substrate_columns()
        assert restored is not failed
        assert restored.vnf_cap[0, 1] == 40.0
        assert not restored._site_runs and not restored._transitions


class TestLinkFailure:
    """fail_link is the first-class twin of fail_site: infinite delay on
    the pair, affected chains rolled back and recomputed, restorable."""

    @staticmethod
    def used_link(gs):
        """The backbone link chain c1 crosses, plus a surviving site."""
        site = next(
            dst for (_s, dst) in gs.router.solution.stage_flows("c1", 1)
        )
        if site == "B":
            return ("a", "b"), "A"
        return ("a", "c"), "B"

    def test_affected_chains_identified(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        link, _other = self.used_link(gs)
        assert chains_through_link(gs, *link) == ["c1"]
        unused = ("a", "b") if link == ("a", "c") else ("a", "c")
        assert chains_through_link(gs, *unused) == []

    def test_chain_rerouted_around_failed_link(self):
        gs, service, ingress, egress = build_deployment()
        gs.create_chain(spec("c1"))
        link, other = self.used_link(gs)
        report = fail_link(gs, *link)
        assert report.kind == "link"
        assert report.site == f"{link[0]}<->{link[1]}"
        assert report.affected_chains == ["c1"]
        assert report.carried_after["c1"] == pytest.approx(1.0)
        # The new route avoids the dead pair entirely.
        assert chains_through_link(gs, *link) == []
        assert service.committed(other) > 0
        assert service.pending_reservations() == 0
        # Delay on the pair is now infinite in both directions.
        assert gs.model.latency(*link) == float("inf")
        assert gs.model.latency(link[1], link[0]) == float("inf")

    def test_site_names_resolve_to_nodes(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        report = fail_link(gs, "A", "B")
        assert report.site == "a<->b"
        restore_link(gs, "A", "B")
        assert gs.model.latency("a", "b") == pytest.approx(10.0)

    def test_unrecoverable_when_only_deployment_behind_link(self):
        gs, *_ = build_deployment(cap_a=0.0, cap_b=40.0)
        gs.create_chain(spec("c1"))
        report = fail_link(gs, "a", "b")
        assert report.carried_after["c1"] < report.carried_before["c1"]
        assert report.carried_after["c1"] == 0.0

    def test_restore_link_enables_extension(self):
        gs, *_ = build_deployment(cap_a=0.0, cap_b=40.0)
        gs.create_chain(spec("c1"))
        fail_link(gs, "a", "b")
        assert gs.installations["c1"].routed_fraction == 0.0
        restore_link(gs, "a", "b")
        assert gs.model.latency("a", "b") == pytest.approx(10.0)
        assert gs.extend_chain("c1") > 0
        assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)

    def test_idempotent_refail_keeps_original_delay(self):
        gs, *_ = build_deployment()
        fail_link(gs, "a", "b")
        fail_link(gs, "a", "b")  # re-fail: original delay stays stashed
        restore_link(gs, "a", "b")
        assert gs.model.latency("a", "b") == pytest.approx(10.0)
        with pytest.raises(FailureError):
            restore_link(gs, "a", "b")

    def test_invalid_pairs_rejected(self):
        gs, *_ = build_deployment()
        with pytest.raises(FailureError):
            fail_link(gs, "a", "a")
        with pytest.raises(FailureError):
            fail_link(gs, "a", "nowhere")
        with pytest.raises(FailureError):
            restore_link(gs, "a", "b")  # never failed

    def test_unaffected_chain_untouched(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        link, _other = self.used_link(gs)
        unused = ("a", "b") if link == ("a", "c") else ("a", "c")
        report = fail_link(gs, *unused)
        assert report.affected_chains == []
        assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)


def failed_pair_model(fw_sites=("sb", "sc"), latency=None):
    """Nodes a, b, c; fw at sb (on b) and / or sc (on c); chain a -> fw -> c."""
    if latency is None:
        latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [CloudSite("sb", "b", 100.0), CloudSite("sc", "c", 100.0)]
    fw = VNF("fw", 1.0, {site: 50.0 for site in fw_sites})
    chain = Chain("c1", "a", "c", ["fw"], forward_traffic=5.0, reverse_traffic=1.0)
    return NetworkModel(["a", "b", "c"], latency, sites, [fw], [chain])


class TestLpAcrossFailedPair:
    """A flow over a failed pair (+inf delay) cannot carry; only a pair
    with no latency entry at all is a model error."""

    @pytest.mark.parametrize(
        "objective", [LpObjective.MIN_LATENCY, LpObjective.MAX_THROUGHPUT]
    )
    def test_routes_through_the_reachable_site(self, objective):
        gs = GlobalSwitchboard(failed_pair_model(), DataPlane(random.Random(1)))
        # Solved first through sb (25 ms against 30): the program built
        # after the failure starts from these routes and must drop them.
        before = solve_chain_routing_lp(gs.model, objective)
        assert before.solution.stage_flows("c1", 1) == {("a", "sb"): pytest.approx(1.0)}
        fail_link(gs, "a", "b")
        result = solve_chain_routing_lp(gs.model, objective)
        assert result.ok
        assert result.solution.stage_flows("c1", 1) == {("a", "sc"): pytest.approx(1.0)}
        assert result.solution.stage_flows("c1", 2) == {("sc", "c"): pytest.approx(1.0)}

    def test_no_reachable_site(self):
        gs = GlobalSwitchboard(
            failed_pair_model(fw_sites=("sb",)), DataPlane(random.Random(1))
        )
        fail_link(gs, "a", "b")
        assert solve_chain_routing_lp(gs.model).status == "infeasible"
        result = solve_chain_routing_lp(gs.model, LpObjective.MAX_THROUGHPUT)
        assert result.ok
        assert result.solution.routed_fraction("c1") == 0.0

    def test_placement_opens_the_reachable_site(self):
        gs = GlobalSwitchboard(
            failed_pair_model(fw_sites=("sb",)), DataPlane(random.Random(1))
        )
        fail_link(gs, "a", "b")
        plan = plan_vnf_placement(gs.model, {"fw": 1}, 50.0)
        assert plan.new_sites == {"fw": ["sc"]}
        assert plan.solution.stage_flows("c1", 1) == {("a", "sc"): pytest.approx(1.0)}

    def test_unknown_pair_still_raises(self):
        model = failed_pair_model(latency={("a", "c"): 30.0, ("b", "c"): 15.0})
        with pytest.raises(ModelError, match="no latency entry for 'a' -> 'sb'"):
            solve_chain_routing_lp(model)


class TestHopWeights:
    def test_ingress_rule_divides_by_site_instance_weight(self):
        """Section 5.2's product rule: the TE fraction times the
        forwarder's share of its site's instance weight, so a heavier
        lone instance does not inflate its site's share."""
        gs, service, _ingress, _egress = build_deployment()
        service.instances_at("A")[0].weight = 3.0
        gs.create_chain(spec("c1", demand=60.0))
        fractions = gs.router.solution.stage_flows("c1", 1)
        assert fractions == {
            ("a", "A"): pytest.approx(1 / 3), ("a", "B"): pytest.approx(1 / 3)
        }
        rule = gs.local_switchboard("A").edge_forwarder().rules[
            (gs.installations["c1"].label, "C")
        ]
        choice = rule.next_forwarders
        assert {t: choice.weight(t) for t in choice.targets} == {
            "fwd.A.1": pytest.approx(1 / 3), "fwd.B.1": pytest.approx(1 / 3)
        }


class TestReoptimize:
    def test_unchanged_demand_skipped(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        flows_before = dict(gs.router.solution.stage_flows("c1", 1))
        report = reoptimize(gs, {"c1": 1.0})
        assert report.skipped == ["c1"]
        assert report.rerouted == []
        assert dict(gs.router.solution.stage_flows("c1", 1)) == flows_before

    def test_demand_increase_rerouted_and_committed(self):
        gs, service, *_ = build_deployment()
        gs.create_chain(spec("c1", demand=5.0))
        committed_before = sum(
            gs.installations["c1"].committed_load.values()
        )
        report = reoptimize(gs, {"c1": 2.0})
        assert report.rerouted == ["c1"]
        assert gs.model.chains["c1"].forward_traffic[0] == pytest.approx(10.0)
        committed_after = sum(gs.installations["c1"].committed_load.values())
        assert committed_after == pytest.approx(2 * committed_before)

    def test_demand_decrease_frees_capacity(self):
        gs, service, *_ = build_deployment(cap_a=12.0, cap_b=0.0)
        gs.create_chain(spec("c1", demand=6.0))  # exactly fills A
        report = reoptimize(gs, {"c1": 0.5})
        assert report.rerouted == ["c1"]
        # Another chain now fits.
        gs.create_chain(spec("c2", demand=3.0, dst="20.0.1.0/24"))
        assert gs.installations["c2"].routed_fraction == pytest.approx(1.0)

    def test_total_offered_and_carried_reported(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1", demand=5.0))
        report = reoptimize(gs, {"c1": 2.0})
        assert report.offered_after == pytest.approx(10.0)
        assert report.carried_after == pytest.approx(10.0)
        assert report.carried_share == pytest.approx(1.0)

    def test_unknown_chain_rejected(self):
        gs, *_ = build_deployment()
        with pytest.raises(KeyError):
            reoptimize(gs, {"ghost": 2.0})

    def test_negative_factor_rejected(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1"))
        with pytest.raises(ValueError):
            reoptimize(gs, {"c1": -1.0})

    def test_mid_round_removal_skipped_not_keyerror(self):
        """Chains torn down while a round is running are skipped.

        Regression test: ``reoptimize`` used to iterate the live
        ``gs.installations`` dict, so a chain removed by a controller
        callback during an earlier chain's re-route (operator teardown
        between bus messages, admission-control eviction) raised
        ``KeyError`` halfway through the round, leaving released-but-
        unrouted chains behind.  The round now snapshots the
        installation set at entry and re-checks membership per step.
        """
        gs, *_ = build_deployment()
        gs.create_chain(spec("c1", demand=5.0))
        gs.create_chain(spec("c2", demand=4.0, dst="20.0.1.0/24"))
        original = gs._route_and_commit

        def evicting(name):
            if name == "c1":
                gs.remove_chain("c2")
            return original(name)

        gs._route_and_commit = evicting
        report = reoptimize(gs, {"c1": 2.0, "c2": 2.0})
        assert "c2" not in gs.installations
        assert report.vanished == ["c2"]
        assert report.rerouted == ["c1"]
        assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)
        # Accounting covers only chains that survived the round.
        assert report.offered_after == pytest.approx(10.0)
        assert report.carried_after == pytest.approx(10.0)

    def test_reroute_carrying_nothing_removes_the_rules(self):
        """A re-route that carries nothing releases the chain's capacity
        and, as after ``fail_site``, its forwarder rules: no new
        connection may cross a VNF with no committed load."""
        gs, service, ingress, egress = build_deployment()
        gs.create_chain(spec("c1"))
        assert gs.installations["c1"].rule_sites
        for site in service.site_capacity:
            service.site_capacity[site] = 0.0
        reoptimize(gs, {"c1": 2.0})
        assert gs.installations["c1"].routed_fraction == 0.0
        assert gs.installations["c1"].rule_sites == set()
        assert not any(
            fwd.rules for fwd in gs.local_switchboard("B").forwarders
        )
        ingress.ingress(Packet(FiveTuple("10.0.0.9", "20.0.0.9", "tcp", 1, 80)))
        assert not egress.delivered

    def test_diurnal_cycle_round_trip(self):
        """Drive a chain through a simulated day of demand factors."""
        from repro.topology.timeseries import diurnal_factor

        gs, *_ = build_deployment()
        gs.create_chain(spec("c1", demand=5.0))
        base = 5.0
        for hour in (0, 6, 12, 20):
            target = base * diurnal_factor(hour)
            current = gs.model.chains["c1"].forward_traffic[0]
            reoptimize(gs, {"c1": target / current}, threshold=0.0)
            assert gs.model.chains["c1"].forward_traffic[0] == pytest.approx(
                target
            )
            assert gs.installations["c1"].routed_fraction == pytest.approx(1.0)
