"""Self-tests for the invariant checkers.

The acceptance bar for a checker is that it is *live*: deliberately
corrupting the state it watches must produce a violation, and a healthy
system must produce none.  Each test here corrupts exactly one thing.
"""

import pytest

from repro.bus.bus import Delivery
from repro.chaos import (
    InvariantChecker,
    LeaseGrant,
    LeaseMonitor,
    SoakConfig,
    build_deployment,
    bus_delivery,
    capacity_safety,
    lease_safety,
    link_conservation,
    network_quiescence,
    two_phase_atomicity,
)
from repro.controller.replication import ReplicatedStore
from repro.simnet.events import Simulator
from repro.simnet.network import LinkSpec, SimNetwork


@pytest.fixture()
def deployment():
    return build_deployment(SoakConfig(seed=1, num_chains=3))


class TestChecker:
    def test_clean_system_has_no_violations(self, deployment):
        d = deployment
        checker = InvariantChecker(d.sim)
        checker.add("conservation", link_conservation(d.net))
        checker.add("2pc", two_phase_atomicity(d.gs))
        checker.add("capacity", capacity_safety(d.gs))
        checker.add("bus", bus_delivery(d.bus))
        checker.add("lease", lease_safety(d.monitor))
        assert checker.check_now() == []
        assert checker.violations == []
        assert checker.probes_run == 5

    def test_periodic_probing_on_sim_clock(self):
        sim = Simulator()
        checker = InvariantChecker(sim, interval_s=1.0)
        seen = []
        checker.add("spy", lambda: seen.append(sim.now) or [])
        checker.start(until=5.0)
        sim.run()
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_violation_records_sim_time(self):
        sim = Simulator()
        checker = InvariantChecker(sim)
        checker.add("always", lambda: ["broken"])
        sim.schedule(2.5, checker.check_now)
        sim.run()
        (violation,) = checker.violations
        assert violation.at == 2.5
        assert violation.invariant == "always"
        assert violation.detail == "broken"

    def test_duplicate_probe_rejected(self):
        checker = InvariantChecker(Simulator())
        checker.add("x", lambda: [])
        with pytest.raises(ValueError):
            checker.add("x", lambda: [])

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(Simulator(), interval_s=0.0)


class TestLinkConservation:
    def make_net(self):
        net = SimNetwork(Simulator())
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", LinkSpec(delay_s=0.001))
        net.send("a", "b", "x")
        net.run()
        return net

    def test_corrupt_delivered_counter_detected(self):
        net = self.make_net()
        probe = link_conservation(net)
        assert probe() == []
        net._links[("a", "b")].stats.delivered += 5  # corruption
        assert any("delivered" in v for v in probe())

    def test_corrupt_byte_ledger_detected(self):
        net = self.make_net()
        probe = link_conservation(net)
        assert probe() == []
        net._links[("a", "b")].stats.bytes_dropped += 10_000
        assert any("byte ledger" in v for v in probe())

    def test_backwards_counter_detected(self):
        net = self.make_net()
        probe = link_conservation(net)
        assert probe() == []
        net._links[("a", "b")].stats.sent -= 1  # lost from the ledger
        assert any("backwards" in v for v in probe())

    def test_quiescence_flags_in_flight(self):
        net = SimNetwork(Simulator())
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", LinkSpec(delay_s=1.0))
        net.send("a", "b", "x")
        probe = network_quiescence(net)
        assert probe() != []  # still crossing
        net.run()
        assert probe() == []


class TestTwoPhaseAtomicity:
    def test_dangling_reservation_detected(self, deployment):
        d = deployment
        probe = two_phase_atomicity(d.gs)
        assert probe() == []
        # A prepare that never commits nor aborts: the half-open state
        # a crashed coordinator would leave behind.
        d.gs.vnf_services["fw"].prepare("ghost-chain", "A", 1.0)
        assert any("dangling" in v for v in probe())


class TestCapacitySafety:
    def test_overcommit_detected(self, deployment):
        d = deployment
        probe = capacity_safety(d.gs)
        assert probe() == []
        service = d.gs.vnf_services["fw"]
        service._committed["A"] += 10 * service.site_capacity["A"]
        assert any("exceeds" in v for v in probe())

    def test_ledger_mismatch_detected(self, deployment):
        d = deployment
        probe = capacity_safety(d.gs)
        name = next(iter(d.gs.installations))
        installation = d.gs.installations[name]
        (key, load) = next(iter(installation.committed_load.items()))
        installation.committed_load[key] = load + 1.0  # silent skew
        assert any("ledger" in v for v in probe())


class TestBusDelivery:
    def test_phantom_delivery_detected(self, deployment):
        d = deployment
        probe = bus_delivery(d.bus)
        assert probe() == []
        d.bus.stats.deliveries.append(Delivery("/t", "nobody", 0.0, 1.0))
        assert any("unknown client" in v for v in probe())

    def test_unlogged_delivery_detected(self, deployment):
        d = deployment
        d.bus.attach("real", "A")
        d.bus.stats.deliveries.append(Delivery("/t", "real", 0.0, 1.0))
        # The bus says "real" got a message, but the client log is empty.
        assert any("receipts" in v for v in bus_delivery(d.bus)())

    def test_negative_latency_detected(self, deployment):
        d = deployment
        d.bus.attach("real", "A")
        d.bus.clients["real"].received.append((0.0, "/t", None))
        d.bus.stats.deliveries.append(Delivery("/t", "real", 5.0, 0.0))
        assert any("negative" in v for v in bus_delivery(d.bus)())


def _bus_delivery_full_walk(bus):
    """The probe as it was before it kept a cursor: re-walk every
    delivery ever recorded.  The incremental probe must say the same."""
    out = []
    stats = bus.stats
    if stats.wan_drops > stats.wan_messages:
        out.append(f"wan_drops {stats.wan_drops} > wan_messages {stats.wan_messages}")
    per_client = {}
    for delivery in stats.deliveries:
        if delivery.latency < -1e-6:
            out.append(
                f"negative delivery latency {delivery.latency:.6f}s "
                f"to {delivery.subscriber!r}"
            )
        per_client[delivery.subscriber] = per_client.get(delivery.subscriber, 0) + 1
    for name, count in per_client.items():
        client = bus.clients.get(name)
        if client is None:
            out.append(f"delivery recorded for unknown client {name!r}")
        elif len(client.received) != count:
            out.append(
                f"client {name!r} logged {len(client.received)} "
                f"receipts but the bus recorded {count} deliveries"
            )
    return out


class TestBusDeliveryIsIncremental:
    def test_every_probe_reports_what_a_full_walk_would(self, deployment):
        d = deployment
        d.bus.attach("real", "A")
        d.bus.attach("other", "A")
        probe = bus_delivery(d.bus)
        log = d.bus.clients["real"].received
        steps = [
            lambda: None,
            lambda: d.bus.stats.deliveries.append(Delivery("/t", "real", 0.0, 1.0)),
            lambda: log.append((1.0, "/t", None)),  # now the log agrees
            lambda: d.bus.stats.deliveries.append(Delivery("/t", "real", 5.0, 0.0)),
            lambda: log.append((0.0, "/t", None)),
            lambda: log.append((0.0, "/t", "planted")),  # an extra receipt
            lambda: d.bus.stats.deliveries.append(Delivery("/t", "nobody", 0.0, 1.0)),
            lambda: d.bus.stats.deliveries.append(Delivery("/t", "other", 2.0, 1.0)),
            lambda: log.pop(),
            lambda: None,
        ]
        seen = []
        for step in steps:
            step()
            found = probe()
            assert found == _bus_delivery_full_walk(d.bus)
            seen.append(found)
        # what was found once is still reported: the negative latency
        # and the phantom subscriber never go away
        assert any("negative" in v for v in seen[-1])
        assert any("unknown client" in v for v in seen[-1])
        assert sum("negative" in v for v in seen[-1]) == 2

    def test_a_probe_costs_the_deliveries_since_the_last_one(self, deployment):
        d = deployment
        d.bus.attach("real", "A")
        probe = bus_delivery(d.bus)

        class Counting(list):
            walked = 0

            def __getitem__(self, index):
                got = list.__getitem__(self, index)
                Counting.walked += len(got)
                return got

        d.bus.stats.deliveries = Counting(d.bus.stats.deliveries)
        for round_ in range(20):
            for _ in range(10):
                d.bus.stats.deliveries.append(Delivery("/t", "real", 0.0, 1.0))
                d.bus.clients["real"].received.append((1.0, "/t", None))
            assert probe() == []
        assert Counting.walked == len(d.bus.stats.deliveries)


class TestLeaseSafety:
    def make_monitor(self):
        return LeaseMonitor(ReplicatedStore(["r1", "r2", "r3"]))

    def test_store_enforced_grants_are_safe(self):
        monitor = self.make_monitor()
        probe = lease_safety(monitor)
        assert monitor.acquire("gs-1", now=0.0, duration=5.0)
        assert not monitor.acquire("gs-2", now=1.0, duration=5.0)
        assert monitor.acquire("gs-1", now=3.0, duration=5.0)  # renew
        assert monitor.acquire("gs-2", now=9.0, duration=5.0)  # takeover
        assert probe() == []
        assert len(monitor.grants) == 2  # renewal extended, not appended

    def test_injected_overlap_detected(self):
        monitor = self.make_monitor()
        monitor.grants.append(LeaseGrant("gs-1", 0.0, 10.0, 3))
        monitor.grants.append(LeaseGrant("gs-2", 5.0, 15.0, 3))  # overlap
        assert any("overlapping" in v for v in lease_safety(monitor)())

    def test_quorumless_grant_detected(self):
        monitor = self.make_monitor()
        monitor.grants.append(LeaseGrant("gs-1", 0.0, 10.0, quorum_alive=1))
        assert any("quorum" in v.lower() or "replicas alive" in v
                   for v in lease_safety(monitor)())

    def test_release_truncates_grant(self):
        monitor = self.make_monitor()
        monitor.acquire("gs-1", now=0.0, duration=10.0)
        monitor.release("gs-1", now=2.0)
        assert monitor.grants[0].expires_at == 2.0
        # Another owner right after release: legal, no overlap.
        monitor.acquire("gs-2", now=2.5, duration=10.0)
        assert lease_safety(monitor)() == []

    def test_quorum_loss_is_clean_failure(self):
        monitor = self.make_monitor()
        monitor.store.fail("r1")
        monitor.store.fail("r2")
        assert monitor.acquire("gs-1", now=0.0, duration=5.0) is False
        assert monitor.grants == []
        assert monitor.leader(0.0) is None
