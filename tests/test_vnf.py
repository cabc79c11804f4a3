"""Tests for VNF services (2PC participation), NAT, firewall, and cache."""

import random

import pytest

from repro.dataplane.forwarder import DropPacket
from repro.dataplane.labels import FiveTuple, Packet
from repro.vnf.cache import (
    CacheError,
    LruCache,
    ZipfWorkload,
    chain_workloads,
    run_cache_experiment,
)
from repro.vnf.firewall import FirewallRule, StatefulFirewall
from repro.vnf.nat import PORT_BASE, NatFunction
from repro.vnf.service import AllocationError, VnfService

FLOW = FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 80)


class TestVnfService:
    def make_service(self, **kwargs):
        return VnfService("fw", 1.0, {"A": 10.0, "B": 20.0}, **kwargs)

    def test_spawns_instances_per_site(self):
        service = self.make_service()
        assert len(service.instances_at("A")) == 1
        service.scale_out("A")
        service.scale_out("B")
        assert len(service.instances_at("A")) == 2
        assert len(service.instances_at("B")) == 2

    def test_prepare_reserves_capacity(self):
        service = self.make_service()
        assert service.prepare("c1", "A", 6.0)
        assert service.available("A") == pytest.approx(4.0)

    def test_prepare_rejects_over_capacity(self):
        service = self.make_service()
        assert not service.prepare("c1", "A", 11.0)
        assert service.available("A") == pytest.approx(10.0)

    def test_prepare_rejects_unknown_site(self):
        assert not self.make_service().prepare("c1", "Z", 1.0)

    def test_prepare_is_idempotent(self):
        service = self.make_service()
        assert service.prepare("c1", "A", 6.0)
        assert service.prepare("c1", "A", 6.0)
        assert service.available("A") == pytest.approx(4.0)

    def test_commit_moves_reservation_to_allocation(self):
        service = self.make_service()
        service.prepare("c1", "A", 6.0)
        service.commit("c1", "A")
        assert service.committed("A") == pytest.approx(6.0)
        assert service.pending_reservations() == 0

    def test_commit_without_prepare_raises(self):
        with pytest.raises(AllocationError):
            self.make_service().commit("c1", "A")

    def test_abort_releases_reservation(self):
        service = self.make_service()
        service.prepare("c1", "A", 6.0)
        service.abort("c1", "A")
        assert service.available("A") == pytest.approx(10.0)
        service.abort("c1", "A")  # idempotent

    def test_concurrent_reservations_cannot_oversubscribe(self):
        service = self.make_service()
        assert service.prepare("c1", "A", 6.0)
        assert not service.prepare("c2", "A", 6.0)

    def test_release_returns_committed_capacity(self):
        service = self.make_service()
        service.prepare("c1", "A", 6.0)
        service.commit("c1", "A")
        service.release("c1", "A", 6.0)
        assert service.available("A") == pytest.approx(10.0)

    def test_scale_out_adds_instance(self):
        service = self.make_service()
        before = len(service.instances_at("A"))
        service.scale_out("A")
        assert len(service.instances_at("A")) == before + 1

    def test_scale_out_at_undeployed_site_raises(self):
        with pytest.raises(AllocationError):
            self.make_service().scale_out("Z")

    def test_instance_factory_wires_transforms(self):
        service = VnfService(
            "nat", 1.0, {"A": 10.0},
            instance_factory=lambda name, site: NatFunction("9.9.9.9"),
        )
        instance = service.instances_at("A")[0]
        packet = Packet(FLOW)
        instance.process(packet)
        assert packet.flow.src_ip == "9.9.9.9"


class TestNat:
    def test_forward_translation_allocates_stable_port(self):
        nat = NatFunction("9.9.9.9")
        p1 = Packet(FLOW)
        nat(p1)
        assert p1.flow.src_ip == "9.9.9.9"
        assert p1.flow.src_port == PORT_BASE
        p2 = Packet(FLOW)
        nat(p2)
        assert p2.flow.src_port == PORT_BASE  # same binding

    def test_distinct_flows_get_distinct_ports(self):
        nat = NatFunction("9.9.9.9")
        p1 = Packet(FLOW)
        p2 = Packet(FiveTuple("10.0.0.6", "20.0.0.9", "tcp", 1234, 80))
        nat(p1)
        nat(p2)
        assert p1.flow.src_port != p2.flow.src_port

    def test_reverse_restores_private_endpoint(self):
        nat = NatFunction("9.9.9.9")
        fwd = Packet(FLOW)
        nat(fwd)
        rev = Packet(fwd.flow.reversed(), direction="reverse")
        nat(rev)
        assert rev.flow.dst_ip == "10.0.0.5"
        assert rev.flow.dst_port == 1234

    def test_reverse_without_mapping_drops(self):
        nat = NatFunction("9.9.9.9")
        rev = Packet(
            FiveTuple("20.0.0.9", "9.9.9.9", "tcp", 80, 12345),
            direction="reverse",
        )
        with pytest.raises(DropPacket):
            nat(rev)
        assert nat.drops == 1

    def test_reverse_to_foreign_address_drops(self):
        nat = NatFunction("9.9.9.9")
        rev = Packet(
            FiveTuple("20.0.0.9", "8.8.8.8", "tcp", 80, 40000),
            direction="reverse",
        )
        with pytest.raises(DropPacket):
            nat(rev)

    def test_separate_instances_have_separate_state(self):
        # Why symmetric return matters: the second NAT knows nothing
        # about the first NAT's binding.
        nat_a = NatFunction("9.9.9.9")
        nat_b = NatFunction("9.9.9.9")
        fwd = Packet(FLOW)
        nat_a(fwd)
        rev = Packet(fwd.flow.reversed(), direction="reverse")
        with pytest.raises(DropPacket):
            nat_b(rev)


class TestFirewall:
    def test_allowed_flow_becomes_established(self):
        fw = StatefulFirewall([FirewallRule(src_prefix="10.0.0.0/24")])
        fw(Packet(FLOW))
        assert fw.is_established(FLOW)

    def test_disallowed_flow_dropped(self):
        fw = StatefulFirewall([FirewallRule(src_prefix="192.168.0.0/16")])
        with pytest.raises(DropPacket):
            fw(Packet(FLOW))
        assert fw.dropped == 1

    def test_reverse_allowed_only_when_established(self):
        fw = StatefulFirewall([FirewallRule(src_prefix="10.0.0.0/24")])
        rev = Packet(FLOW.reversed(), direction="reverse")
        with pytest.raises(DropPacket):
            fw(rev)
        fw(Packet(FLOW))
        fw(Packet(FLOW.reversed(), direction="reverse"))  # now admitted
        assert fw.admitted == 2

    def test_default_allow_admits_everything_forward(self):
        fw = StatefulFirewall(default_allow=True)
        fw(Packet(FLOW))
        assert fw.admitted == 1

    def test_established_flows_skip_rule_evaluation(self):
        fw = StatefulFirewall([FirewallRule(src_prefix="10.0.0.0/24")])
        fw(Packet(FLOW))
        fw.rules.clear()  # policy change
        fw(Packet(FLOW))  # established flow still admitted
        assert fw.admitted == 2

    def test_port_rule(self):
        fw = StatefulFirewall([FirewallRule(dst_port_range=(80, 80))])
        fw(Packet(FLOW))
        with pytest.raises(DropPacket):
            fw(Packet(FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 22)))


class TestLruCache:
    def test_miss_then_hit(self):
        cache = LruCache(10)
        assert not cache.get("a")
        assert cache.get("a")
        assert cache.hit_rate == 0.5

    def test_eviction_order_is_lru(self):
        cache = LruCache(2)
        cache.get("a")
        cache.get("b")
        cache.get("a")  # refresh a
        cache.get("c")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_zero_capacity_never_stores(self):
        cache = LruCache(0)
        assert not cache.get("a")
        assert not cache.get("a")
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            LruCache(-1)


class TestZipf:
    def test_rank_one_is_most_popular(self):
        workload = ZipfWorkload(1000, 1.0, random.Random(0))
        samples = [workload.sample() for _ in range(20000)]
        counts = {r: samples.count(r) for r in (1, 2, 10)}
        assert counts[1] > counts[2] > counts[10]

    def test_zipf_ratio_approximates_exponent(self):
        workload = ZipfWorkload(1000, 1.0, random.Random(1))
        samples = [workload.sample() for _ in range(50000)]
        ratio = samples.count(1) / samples.count(2)
        assert 1.6 <= ratio <= 2.4  # ideal is 2.0 for exponent 1

    def test_samples_within_catalog(self):
        workload = ZipfWorkload(50, 1.0, random.Random(2))
        assert all(1 <= workload.sample() <= 50 for _ in range(1000))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CacheError):
            ZipfWorkload(0, 1.0, random.Random(0))
        with pytest.raises(CacheError):
            ZipfWorkload(10, 0.0, random.Random(0))


class TestCacheExperiment:
    def test_shared_beats_siloed_on_hit_rate(self):
        shared = run_cache_experiment(chain_workloads(), shared=True)
        siloed = run_cache_experiment(chain_workloads(), shared=False)
        assert shared.hit_rate > siloed.hit_rate

    def test_shared_beats_siloed_on_download_time(self):
        shared = run_cache_experiment(chain_workloads(), shared=True)
        siloed = run_cache_experiment(chain_workloads(), shared=False)
        assert shared.mean_download_ms < siloed.mean_download_ms

    def test_table3_shape(self):
        # Paper: 57.45% vs 44.25% hit rate (a ~30% relative gain) and
        # 19% better download time.
        shared = run_cache_experiment(chain_workloads(), shared=True)
        siloed = run_cache_experiment(chain_workloads(), shared=False)
        relative_gain = (shared.hit_rate - siloed.hit_rate) / siloed.hit_rate
        assert relative_gain > 0.15
        dl_gain = 1 - shared.mean_download_ms / siloed.mean_download_ms
        assert dl_gain > 0.10

    def test_deterministic_given_seed(self):
        a = run_cache_experiment(chain_workloads(seed=5), shared=True)
        b = run_cache_experiment(chain_workloads(seed=5), shared=True)
        assert a.hit_rate == b.hit_rate

    def test_request_count(self):
        result = run_cache_experiment(
            chain_workloads(num_chains=3), requests_per_chain=100, shared=True
        )
        assert result.requests == 300
