"""Unit tests for the simulated network: delays, bandwidth, buffers."""

import pytest

from repro.simnet.network import LinkSpec, NetworkError, SimNetwork


def make_pair(spec: LinkSpec) -> tuple[SimNetwork, list]:
    net = SimNetwork()
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", spec)
    arrivals = []
    net.host("b").on_receive(lambda s, p: arrivals.append((net.sim.now, s, p)))
    return net, arrivals


class TestLinkSpec:
    def test_negative_delay_rejected(self):
        with pytest.raises(NetworkError):
            LinkSpec(delay_s=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(NetworkError):
            LinkSpec(delay_s=0.0, bandwidth_bps=0.0)

    def test_zero_buffer_rejected(self):
        with pytest.raises(NetworkError):
            LinkSpec(delay_s=0.0, bandwidth_bps=1e6, buffer_bytes=0)

    def test_buffer_without_bandwidth_rejected(self):
        # Regression: this combination used to be accepted silently and
        # the buffer limit then never dropped anything (the overflow
        # check only ran on the finite-bandwidth branch).
        with pytest.raises(NetworkError):
            LinkSpec(delay_s=0.01, buffer_bytes=1000)


class TestDelivery:
    def test_propagation_delay(self):
        net, arrivals = make_pair(LinkSpec(delay_s=0.05))
        net.send("a", "b", "hello", 100)
        net.run()
        assert len(arrivals) == 1
        assert arrivals[0][0] == pytest.approx(0.05)
        assert arrivals[0][2] == "hello"

    def test_serialization_delay_uses_bits(self):
        # 1000 bytes over 8 Mbps = 1 ms serialization.
        net, arrivals = make_pair(LinkSpec(delay_s=0.0, bandwidth_bps=8e6))
        net.send("a", "b", "x", 1000)
        net.run()
        assert arrivals[0][0] == pytest.approx(0.001)

    def test_back_to_back_messages_queue(self):
        net, arrivals = make_pair(LinkSpec(delay_s=0.0, bandwidth_bps=8e6))
        for i in range(3):
            net.send("a", "b", i, 1000)
        net.run()
        times = [t for t, _s, _p in arrivals]
        assert times == pytest.approx([0.001, 0.002, 0.003])

    def test_queue_drains_between_sends(self):
        net, arrivals = make_pair(LinkSpec(delay_s=0.0, bandwidth_bps=8e6))
        net.send("a", "b", 0, 1000)
        net.sim.schedule(0.010, net.send, "a", "b", 1, 1000)
        net.run()
        assert arrivals[1][0] == pytest.approx(0.011)

    def test_sender_recorded(self):
        net, arrivals = make_pair(LinkSpec(delay_s=0.01))
        net.send("a", "b", "p", 10)
        net.run()
        assert arrivals[0][1] == "a"

    def test_infinite_bandwidth_has_no_serialization(self):
        net, arrivals = make_pair(LinkSpec(delay_s=0.02))
        for i in range(10):
            net.send("a", "b", i, 10_000_000)
        net.run()
        assert all(t == pytest.approx(0.02) for t, _s, _p in arrivals)


class TestBufferDrops:
    def test_messages_dropped_when_buffer_full(self):
        spec = LinkSpec(delay_s=0.0, bandwidth_bps=8e6, buffer_bytes=2500)
        net, arrivals = make_pair(spec)
        results = [net.send("a", "b", i, 1000) for i in range(5)]
        net.run()
        # Buffer fits 2 queued messages (2000 <= 2500 < 3000).
        assert results == [True, True, False, False, False]
        assert len(arrivals) == 2

    def test_drop_statistics(self):
        spec = LinkSpec(delay_s=0.0, bandwidth_bps=8e6, buffer_bytes=1500)
        net, _ = make_pair(spec)
        for i in range(4):
            net.send("a", "b", i, 1000)
        net.run()
        stats = net.link_stats("a", "b")
        assert stats.sent == 4
        assert stats.delivered == 1
        assert stats.dropped == 3
        assert stats.bytes_dropped == 3000

    def test_delivered_counts_at_delivery_time(self):
        # Regression: ``delivered`` used to be incremented at enqueue
        # time, so a mid-flight snapshot claimed messages were delivered
        # while they were still propagating.
        net, arrivals = make_pair(LinkSpec(delay_s=0.1))
        net.send("a", "b", "m", 100)
        net.run(until=0.05)
        stats = net.link_stats("a", "b")
        assert stats.sent == 1
        assert stats.delivered == 0
        assert stats.bytes_delivered == 0
        assert stats.in_flight == 1
        assert not arrivals
        net.run()
        assert stats.delivered == 1
        assert stats.bytes_delivered == 100
        assert stats.in_flight == 0

    def test_accounting_invariant_under_congestion(self):
        # sent == delivered + dropped + in_flight at *any* stop time.
        spec = LinkSpec(delay_s=0.01, bandwidth_bps=8e6, buffer_bytes=2500)
        net, _ = make_pair(spec)
        for i in range(6):
            net.send("a", "b", i, 1000)
        stats = net.link_stats("a", "b")
        for until in (0.0005, 0.0015, 0.011, 0.02, None):
            net.run(until=until)
            assert stats.sent == 6
            assert (
                stats.delivered + stats.dropped + stats.in_flight == stats.sent
            )
        assert stats.in_flight == 0
        # Buffer fits the serializing message plus one queued (2000 <=
        # 2500 < 3000), so two of six survive.
        assert stats.dropped == 4

    def test_buffer_frees_after_serialization(self):
        spec = LinkSpec(delay_s=0.0, bandwidth_bps=8e6, buffer_bytes=1000)
        net, arrivals = make_pair(spec)
        assert net.send("a", "b", 0, 1000)
        net.sim.schedule(0.002, net.send, "a", "b", 1, 1000)
        net.run()
        assert len(arrivals) == 2


class TestTopologyRules:
    def test_duplicate_host_rejected(self):
        net = SimNetwork()
        net.add_host("a")
        with pytest.raises(NetworkError):
            net.add_host("a")

    def test_unknown_destination_rejected(self):
        net = SimNetwork()
        net.add_host("a")
        with pytest.raises(NetworkError):
            net.send("a", "ghost", "p", 1)

    def test_no_link_and_no_default_rejected(self):
        net = SimNetwork()
        net.add_host("a", site="X")
        net.add_host("b", site="Y")
        with pytest.raises(NetworkError):
            net.send("a", "b", "p", 1)

    def test_same_site_hosts_get_local_link(self):
        net = SimNetwork()
        net.add_host("a", site="X")
        net.add_host("b", site="X")
        got = []
        net.host("b").on_receive(lambda s, p: got.append(net.sim.now))
        assert net.send("a", "b", "p", 100)
        net.run()
        assert got and got[0] < 0.001  # sub-millisecond LAN hop

    def test_default_link_used_when_configured(self):
        net = SimNetwork()
        net.default_link = LinkSpec(delay_s=0.03)
        net.add_host("a")
        net.add_host("b")
        got = []
        net.host("b").on_receive(lambda s, p: got.append(net.sim.now))
        net.send("a", "b", "p", 1)
        net.run()
        assert got[0] == pytest.approx(0.03)

    def test_self_connection_rejected(self):
        net = SimNetwork()
        net.add_host("a")
        with pytest.raises(NetworkError):
            net.connect("a", "a", LinkSpec(delay_s=0.01))

    def test_bidirectional_connect(self):
        net = SimNetwork()
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", LinkSpec(delay_s=0.01))
        got = []
        net.host("a").on_receive(lambda s, p: got.append(p))
        net.send("b", "a", "back", 1)
        net.run()
        assert got == ["back"]

    def test_non_positive_size_rejected(self):
        net, _ = make_pair(LinkSpec(delay_s=0.01))
        with pytest.raises(NetworkError):
            net.send("a", "b", "p", 0)


class TestRetention:
    def test_host_with_a_receiver_keeps_nothing(self):
        net, arrivals = make_pair(LinkSpec(delay_s=0.01))
        for i in range(5):
            net.send("a", "b", i, 100)
        net.run()
        assert [p for _t, _s, p in arrivals] == [0, 1, 2, 3, 4]
        assert net.host("b").received == []  # handed over, not logged

    def test_sink_host_logs_what_arrives(self):
        net = SimNetwork()
        net.add_host("a")
        net.add_host("sink")
        net.connect("a", "sink", LinkSpec(delay_s=0.01))
        net.send("a", "sink", "x", 100)
        net.run()
        assert net.host("sink").received == [(0.01, "a", "x")]

    def test_link_queue_holds_only_messages_still_serializing(self):
        # No event retires a serialized message; the next send does.
        net, arrivals = make_pair(LinkSpec(delay_s=0.0, bandwidth_bps=8e6))
        state = net._links[("a", "b")]
        for burst in range(50):
            for _ in range(4):
                net.send("a", "b", burst, 1000)
            assert len(state.serializing) <= 4
            net.run()
        assert len(arrivals) == 200
        assert state.queued_bytes(net.sim.now) == 0 and not state.serializing


# -- the lazy link queue against the eager drain-event model ---------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.simnet.events import Simulator  # noqa: E402

#: Dyadic numbers only, so a send can land *exactly* on a serialization
#: end: 64 bit/s makes one byte take 1/8 s, and times are multiples of 1/8.
_BPS, _DELAY, _BUFFER = 64.0, 0.25, 12


class EagerLink:
    """The link model this PR replaced, kept as the oracle: occupancy is
    a counter that a scheduled ``_drain`` event decrements at each
    serialization end."""

    def __init__(self, sim):
        self.sim, self.up = sim, True
        self.busy_until, self.queued = 0.0, 0
        self.stats = dict.fromkeys(
            ("sent", "delivered", "dropped", "bytes_sent", "bytes_delivered",
             "bytes_dropped"), 0)
        self.arrivals = []

    def _drop(self, size):
        self.stats["dropped"] += 1
        self.stats["bytes_dropped"] += size

    def send(self, tag, size):
        self.stats["sent"] += 1
        self.stats["bytes_sent"] += size
        if not self.up or self.queued + size > _BUFFER:
            self._drop(size)
            return False
        done = max(self.sim.now, self.busy_until) + size * 8 / _BPS
        self.busy_until = done
        self.queued += size
        self.sim.schedule_at(done, self._drain, size)
        self.sim.schedule_at(done + _DELAY, self._deliver, tag, size)
        return True

    def _drain(self, size):
        self.queued -= size

    def _deliver(self, tag, size):
        if not self.up:
            self._drop(size)
            return
        self.stats["delivered"] += 1
        self.stats["bytes_delivered"] += size
        self.arrivals.append((self.sim.now, "a", tag))


def _play(actions):
    """Drive the real link and the eager model through one schedule of
    (time, action, size) steps; returns what each observed."""
    net = SimNetwork()
    net.add_host("a")
    net.add_host("b")  # a sink: its log is the delivery record
    net.connect("a", "b", LinkSpec(_DELAY, _BPS, _BUFFER), bidirectional=False)
    state = net._links[("a", "b")]
    eager_sim = Simulator()
    eager = EagerLink(eager_sim)
    seen = ([], [])
    for tag, (at, action, size) in enumerate(sorted(actions, key=lambda a: a[0])):
        net.run(until=at)
        eager_sim.run(until=at)
        if action == "send":
            seen[0].append(net.send("a", "b", tag, size))
            seen[1].append(eager.send(tag, size))
        elif action == "down":
            net.fail_link("a", "b", bidirectional=False)
            eager.up = False
        elif action == "up":
            net.restore_link("a", "b", bidirectional=False)
            eager.up = True
        seen[0].append(state.queued_bytes(net.sim.now))
        seen[1].append(eager.queued)
    net.run()
    eager_sim.run()
    stats = net.link_stats("a", "b")
    seen[0].extend([net.host("b").received, {k: getattr(stats, k) for k in eager.stats}])
    seen[1].extend([eager.arrivals, eager.stats])
    return seen


class TestLazyQueueAgainstEagerDrain:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 80).map(lambda k: k / 8),
            st.sampled_from(["send"] * 6 + ["probe", "down", "up"]),
            st.integers(1, 8),
        ),
        max_size=40,
    ))
    def test_same_decisions_deliveries_stats_and_occupancy(self, actions):
        lazy, eager = _play(actions)
        assert lazy == eager

    def test_send_at_exactly_a_serialization_end(self):
        # 10 bytes end serializing at t = 1.25.  One tick earlier the
        # buffer (12) has no room for 3 more; at exactly 1.25 the first
        # message has left and 12 fit.
        lazy, eager = _play([
            (0.0, "send", 10), (1.125, "send", 3), (1.25, "send", 12),
            (1.25, "probe", 0),
        ])
        assert lazy == eager
        assert lazy[:6] == [True, 10, False, 10, True, 12]
