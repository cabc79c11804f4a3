"""Tests for the at-least-once control RPC layer."""

import pytest

from repro.resilience.rpc import RpcConfig, RpcError, RpcLayer
from repro.simnet.events import Simulator
from repro.simnet.network import LinkSpec, SimNetwork


def build(config=None, seed=0):
    sim = Simulator()
    net = SimNetwork(sim)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", LinkSpec(delay_s=0.010))
    layer = RpcLayer(net, config, seed=seed)
    return sim, net, layer


class TestConfig:
    def test_defaults_valid(self):
        RpcConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"max_retries": -1},
            {"jitter": -0.1},
            {"dedup_window": 0},
            {"dedup_window": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(RpcError):
            RpcConfig(**kwargs)


class TestDelivery:
    def test_message_delivered_and_acked(self):
        sim, net, layer = build()
        got = []
        a = layer.endpoint("a", lambda s, p: None)
        layer.endpoint("b", lambda s, p: got.append((s, p)))
        a.send("b", {"type": "ping"})
        net.run()
        assert got == [("a", {"type": "ping"})]
        assert layer.sent == 1
        assert layer.acked == 1
        assert layer.retries == 0
        assert layer.outstanding() == 0

    def test_ids_are_globally_monotonic(self):
        sim, net, layer = build()
        a = layer.endpoint("a", lambda s, p: None)
        b = layer.endpoint("b", lambda s, p: None)
        ids = [a.send("b", {"n": 1}), b.send("a", {"n": 2}),
               a.send("b", {"n": 3})]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_bare_sends_pass_through_unchanged(self):
        """A non-RPC message (legacy bare send) reaches the handler
        as-is and generates no ack traffic."""
        sim, net, layer = build()
        got = []
        layer.endpoint("b", lambda s, p: got.append(p))
        net.send("a", "b", {"type": "chain_request", "chain": "x"})
        net.run()
        assert got == [{"type": "chain_request", "chain": "x"}]
        assert layer.sent == 0
        assert layer.acked == 0

    def test_duplicate_endpoint_rejected(self):
        sim, net, layer = build()
        layer.endpoint("a", lambda s, p: None)
        with pytest.raises(RpcError):
            layer.endpoint("a", lambda s, p: None)


class TestRetransmission:
    def test_retries_recover_from_loss_window(self):
        """Total loss for a while, then a healthy link: the message
        still arrives exactly once."""
        config = RpcConfig(timeout_s=0.1, max_retries=8, jitter=0.0)
        sim, net, layer = build(config)
        got = []
        a = layer.endpoint("a", lambda s, p: None)
        layer.endpoint("b", lambda s, p: got.append(p))
        net.set_link_loss("a", "b", 1.0)
        a.send("b", {"type": "prepare"})
        sim.schedule(0.35, net.set_link_loss, "a", "b", 0.0)
        net.run()
        assert got == [{"type": "prepare"}]
        assert layer.retries > 0
        assert layer.timeouts == 0
        assert layer.outstanding() == 0

    def test_give_up_invokes_on_failure(self):
        config = RpcConfig(timeout_s=0.05, max_retries=3, jitter=0.0)
        sim, net, layer = build(config)
        failures = []
        a = layer.endpoint("a", lambda s, p: None)
        layer.endpoint("b", lambda s, p: None)
        net.set_link_loss("a", "b", 1.0)
        a.send("b", {"type": "prepare"},
               lambda dst, p: failures.append((dst, p)))
        net.run()
        assert failures == [("b", {"type": "prepare"})]
        assert layer.retries == 3
        assert layer.timeouts == 1
        assert layer.outstanding() == 0

    def test_lost_acks_cause_dedup_not_redelivery(self):
        """Only the ack direction is lossy: the receiver sees every
        retransmit but dispatches the payload exactly once."""
        config = RpcConfig(timeout_s=0.05, max_retries=4, jitter=0.0)
        sim, net, layer = build(config)
        got = []
        a = layer.endpoint("a", lambda s, p: None)
        layer.endpoint("b", lambda s, p: got.append(p))
        net.set_link_loss("b", "a", 1.0, bidirectional=False)
        a.send("b", {"type": "commit"})
        net.run()
        assert got == [{"type": "commit"}]
        assert layer.duplicates_suppressed == layer.retries > 0
        # Every ack was lost, so the sender eventually gave up -- but
        # the application message was delivered (and deduped).
        assert layer.timeouts == 1

    def test_plain_counters_count_every_event(self):
        """The layer's plain counters count every send, ack, retry,
        give-up and suppressed duplicate."""
        config = RpcConfig(timeout_s=0.05, max_retries=3, jitter=0.0)
        sim, net, layer = build(config)
        a = layer.endpoint("a", lambda s, p: None)
        layer.endpoint("b", lambda s, p: None)
        a.send("b", {"n": 1})  # delivered and acked
        net.run()
        net.set_link_loss("b", "a", 1.0, bidirectional=False)
        a.send("b", {"n": 2})  # every ack lost: retries, dedup, give-up
        net.run()
        counts = (
            layer.sent, layer.acked, layer.retries, layer.timeouts,
            layer.duplicates_suppressed,
        )
        assert counts == (5, 1, 3, 1, 3)

    def test_cancel_matching_stops_retransmits(self):
        config = RpcConfig(timeout_s=0.05, max_retries=10, jitter=0.0)
        sim, net, layer = build(config)
        failures = []
        a = layer.endpoint("a", lambda s, p: None)
        layer.endpoint("b", lambda s, p: None)
        net.set_link_loss("a", "b", 1.0)
        a.send("b", {"type": "abort", "chain": "c1"},
               lambda dst, p: failures.append(p))
        a.send("b", {"type": "abort", "chain": "c2"},
               lambda dst, p: failures.append(p))
        cancelled = a.cancel_matching(
            lambda p: isinstance(p, dict) and p.get("chain") == "c1"
        )
        assert cancelled == 1
        assert a.outstanding == 1
        net.run()
        # The cancelled send neither retried to completion nor failed;
        # the surviving one exhausted its retries.
        assert failures == [{"type": "abort", "chain": "c2"}]

    def test_same_seed_same_jitter_schedule(self):
        def trace(seed):
            config = RpcConfig(timeout_s=0.05, max_retries=4)
            sim, net, layer = build(config, seed=seed)
            a = layer.endpoint("a", lambda s, p: None)
            layer.endpoint("b", lambda s, p: None)
            net.set_link_loss("a", "b", 1.0)
            times = []
            a.send("b", {"n": 1}, lambda dst, p: times.append(sim.now))
            net.run()
            return times

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class TestDedupWindow:
    def test_window_is_bounded(self):
        config = RpcConfig(dedup_window=4)
        sim, net, layer = build(config)
        a = layer.endpoint("a", lambda s, p: None)
        b = layer.endpoint("b", lambda s, p: None)
        for i in range(10):
            a.send("b", {"n": i})
        net.run()
        assert len(b._seen) <= 4
