"""Simulated hosts and links.

Messages sent between hosts experience, per directed link:

- *queueing delay* behind earlier messages (FIFO, one transmitter),
- *serialization delay* = size / bandwidth,
- *propagation delay* = the link's configured one-way delay,
- *drops* when the backlog of queued-but-untransmitted bytes exceeds the
  link's buffer.

A message costs the simulator one event, its delivery.  Nothing is
scheduled for the end of its serialization: a link keeps the
``(serialization end, size)`` of what it accepted and retires entries
when its occupancy is read (DESIGN section 16).

These are exactly the effects that separate Switchboard's message-bus
topology from full-mesh broadcast in Figure 9: broadcast serializes one
copy per subscriber through the publisher's uplink, so its queueing delay
explodes and buffers overflow, while the proxy topology sends one copy
per *site*.

Fault primitives (used by :mod:`repro.chaos`): links can be failed and
restored, given a loss probability or a propagation-delay degradation
multiplier; hosts can crash and restart; the network can be partitioned
into host groups.  Every message lost to a fault is counted as a *drop*
on its link (with a per-reason counter), so the accounting invariant
``sent == delivered + dropped + in_flight`` keeps holding under any
fault schedule -- that is what lets :mod:`repro.chaos.invariants` check
conservation continuously while faults play.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TYPE_CHECKING

from repro.core.errors import ReproError
from repro.simnet.events import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class NetworkError(ReproError):
    """Raised on invalid network construction or use."""


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a directed link.

    ``bandwidth_bps`` of ``None`` means infinite (no serialization delay
    and no drops); ``buffer_bytes`` of ``None`` means an unbounded buffer.
    A finite buffer requires a finite bandwidth: with instantaneous
    serialization the transmit queue can never back up, so a buffer
    limit on an infinite-bandwidth link would silently never drop --
    that spec combination is rejected here instead.
    """

    delay_s: float
    bandwidth_bps: float | None = None
    buffer_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.delay_s >= 0:
            raise NetworkError(f"negative link delay {self.delay_s}")
        if self.bandwidth_bps is not None and not self.bandwidth_bps > 0:
            raise NetworkError(f"non-positive bandwidth {self.bandwidth_bps}")
        if self.buffer_bytes is not None and self.buffer_bytes <= 0:
            raise NetworkError(f"non-positive buffer {self.buffer_bytes}")
        if self.buffer_bytes is not None and self.bandwidth_bps is None:
            raise NetworkError(
                "buffer_bytes requires a finite bandwidth_bps: an "
                "infinite-bandwidth link never queues, so its buffer "
                "limit could never drop anything"
            )


@dataclass
class LinkStats:
    """Counters accumulated by a directed link.

    ``sent`` counts messages accepted onto the link (at send time);
    ``delivered`` counts messages actually handed to the destination
    host, incremented *when the delivery event fires*, so a message
    still crossing the link when the simulator stops is in flight, not
    delivered.  ``sent == delivered + dropped + in_flight`` holds at any
    simulated time.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    bytes_dropped: int = 0

    @property
    def in_flight(self) -> int:
        """Messages accepted but not yet delivered (queued, serializing,
        or propagating)."""
        return self.sent - self.delivered - self.dropped


@dataclass
class _LinkState:
    spec: LinkSpec
    stats: LinkStats = field(default_factory=LinkStats)
    # Time at which the transmitter finishes the last queued message.
    busy_until: float = 0.0
    # ``(serialization end, size)`` of accepted messages, FIFO, and the
    # sum of their sizes.  Nothing is scheduled to retire an entry: read
    # the occupancy through :meth:`queued_bytes`, which retires first.
    serializing: deque = field(default_factory=deque)
    _queued: int = 0
    # Cached per-link histogram handles (queue delay, serialization),
    # created lazily on first use so links on an un-instrumented network
    # pay nothing.
    obs: tuple | None = None
    # -- fault state (repro.chaos) ------------------------------------
    up: bool = True
    #: Probability a message on the link is lost (sampled at send time
    #: from the network's fault RNG).
    loss: float = 0.0
    #: Propagation-delay multiplier (>= 1 models degradation).
    delay_multiplier: float = 1.0

    def queued_bytes(self, now: float) -> int:
        """Bytes accepted but not yet fully serialized at ``now`` (the
        queue occupancy).  A message whose last bit leaves at exactly
        ``now`` has left."""
        queue = self.serializing
        while queue and queue[0][0] <= now:
            self._queued -= queue.popleft()[1]
        return self._queued


class Host:
    """A named endpoint attached to the simulated network.

    A host hands incoming messages to its registered receive callback
    and keeps nothing.  A host with no receiver is a sink: it logs what
    arrives in ``received`` as ``(time, sender, payload)`` -- a log is
    kept by whoever has no other reader.  The optional ``site``
    attribute groups hosts for site-local (zero link) communication,
    mirroring how the paper colocates proxies, forwarders, and VNF
    instances at a cloud site.
    """

    def __init__(self, network: "SimNetwork", name: str, site: str | None = None):
        self.network = network
        self.name = name
        self.site = site
        self._receiver: Callable[[str, Any], None] | None = None
        self.received: list[tuple[float, str, Any]] = []

    def on_receive(self, callback: Callable[[str, Any], None]) -> None:
        """Register ``callback(sender_name, payload)`` for incoming messages."""
        self._receiver = callback

    def send(
        self, dst: str, payload: Any, size_bytes: int = 1000,
        strict: bool = True,
    ) -> bool:
        """Send ``payload`` to host ``dst``.  Returns False if dropped."""
        return self.network.send(self.name, dst, payload, size_bytes,
                                 strict=strict)

    def _deliver(
        self, state: "_LinkState", size_bytes: int, sender: str, payload: Any
    ) -> None:
        """Delivery event: count the message against its link *now* (not
        at send time, which keeps ``LinkStats.delivered`` honest when the
        simulator stops with messages still in flight), then hand it
        over.

        A message still crossing a link when the link fails or the
        destination crashes is accounted as a drop at its (would-be)
        delivery time -- never as a delivery -- so link conservation
        survives mid-flight faults."""
        network = self.network
        if not state.up or self.name in network._crashed:
            network._count_drop(state, size_bytes, sender, self.name,
                                "in_flight")
            return
        stats = state.stats
        stats.delivered += 1
        stats.bytes_delivered += size_bytes
        if self._receiver is not None:
            self._receiver(sender, payload)
        else:
            self.received.append((network.sim.now, sender, payload))


class SimNetwork:
    """Hosts connected by directed links with delay, bandwidth, and buffers."""

    #: Link used between two hosts at the same site when no explicit link
    #: exists: a fast local hop rather than a wide-area one.
    LOCAL_LINK = LinkSpec(delay_s=0.0002, bandwidth_bps=10e9)

    def __init__(
        self,
        sim: Simulator | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.sim = sim if sim is not None else Simulator()
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], _LinkState] = {}
        self.default_link: LinkSpec | None = None
        #: Optional observability sink; ``None`` keeps hot paths free.
        self.metrics = metrics
        # -- fault state (repro.chaos) --------------------------------
        self._crashed: set[str] = set()
        #: host -> partition group id; hosts in different groups cannot
        #: communicate.  ``None`` means no partition is active.
        self._partition: dict[str, int] | None = None
        #: Seeded RNG for loss sampling; set it explicitly (or via the
        #: constructor of the chaos engine) for reproducible runs.
        self._fault_rng: random.Random | None = None
        #: Network-wide drop counts by reason (kept even without a
        #: metrics registry so invariants stay checkable everywhere).
        self.drop_reasons: dict[str, int] = {}

    def _link_obs(self, state: _LinkState, src: str, dst: str) -> tuple:
        """Per-link histogram handles, created once per link."""
        if state.obs is None:
            link = f"{src}->{dst}"
            state.obs = (
                self.metrics.histogram("link.queue_delay_s", link=link),
                self.metrics.histogram("link.serialization_s", link=link),
            )
        return state.obs

    # -- construction -------------------------------------------------

    def add_host(self, name: str, site: str | None = None) -> Host:
        if name in self._hosts:
            raise NetworkError(f"duplicate host {name!r}")
        host = Host(self, name, site)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    @property
    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    def connect(
        self,
        src: str,
        dst: str,
        spec: LinkSpec,
        bidirectional: bool = True,
    ) -> None:
        """Install a link from ``src`` to ``dst`` (and back, by default)."""
        for name in (src, dst):
            if name not in self._hosts:
                raise NetworkError(f"unknown host {name!r}")
        if src == dst:
            raise NetworkError("cannot connect a host to itself")
        self._links[(src, dst)] = _LinkState(spec=spec)
        if bidirectional:
            self._links[(dst, src)] = _LinkState(spec=spec)

    def link_stats(self, src: str, dst: str) -> LinkStats:
        state = self._links.get((src, dst))
        if state is None:
            raise NetworkError(f"no link {src!r} -> {dst!r}")
        return state.stats

    # -- fault primitives (repro.chaos) --------------------------------

    def set_fault_rng(self, rng: random.Random) -> None:
        """Install the seeded RNG that samples probabilistic loss."""
        self._fault_rng = rng

    def _fault_states(
        self, src: str, dst: str, bidirectional: bool
    ) -> list[_LinkState]:
        """Link states a fault applies to; lazily materializes
        site-local/default links (the same links :meth:`send` would use)
        so faults on them take effect."""
        pairs = [(src, dst)] + ([(dst, src)] if bidirectional else [])
        states = []
        for a, b in pairs:
            if a not in self._hosts or b not in self._hosts:
                raise NetworkError(f"unknown host in link {a!r} -> {b!r}")
            state = self._resolve_link(a, b)
            if state is not None:
                states.append(state)
        if not states:
            raise NetworkError(f"no link {src!r} <-> {dst!r}")
        return states

    def fail_link(self, src: str, dst: str, bidirectional: bool = True) -> None:
        """Take a link down: subsequent sends and in-flight messages on
        it are counted as drops until :meth:`restore_link`."""
        for state in self._fault_states(src, dst, bidirectional):
            state.up = False

    def restore_link(
        self, src: str, dst: str, bidirectional: bool = True
    ) -> None:
        for state in self._fault_states(src, dst, bidirectional):
            state.up = True

    def link_is_up(self, src: str, dst: str) -> bool:
        state = self._links.get((src, dst))
        if state is None:
            raise NetworkError(f"no link {src!r} -> {dst!r}")
        return state.up

    def set_link_loss(
        self, src: str, dst: str, probability: float,
        bidirectional: bool = True,
    ) -> None:
        """Per-message loss probability, sampled from the fault RNG."""
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"loss probability out of range: {probability}")
        if probability > 0.0 and self._fault_rng is None:
            self._fault_rng = random.Random(0)
        for state in self._fault_states(src, dst, bidirectional):
            state.loss = probability

    def set_link_degradation(
        self, src: str, dst: str, delay_multiplier: float,
        bidirectional: bool = True,
    ) -> None:
        """Scale a link's propagation delay (1.0 restores nominal)."""
        if delay_multiplier < 0:
            raise NetworkError(
                f"negative delay multiplier {delay_multiplier}"
            )
        for state in self._fault_states(src, dst, bidirectional):
            state.delay_multiplier = delay_multiplier

    def crash_host(self, name: str) -> None:
        """Crash a host: messages to or from it are counted as drops and
        its receive callback never fires, until :meth:`restart_host`."""
        if name not in self._hosts:
            raise NetworkError(f"unknown host {name!r}")
        self._crashed.add(name)

    def restart_host(self, name: str) -> None:
        """Bring a crashed host back (its registered callback resumes;
        host-level state is whatever the owner kept, mirroring a
        stateless process restart)."""
        if name not in self._hosts:
            raise NetworkError(f"unknown host {name!r}")
        self._crashed.discard(name)

    def host_is_up(self, name: str) -> bool:
        if name not in self._hosts:
            raise NetworkError(f"unknown host {name!r}")
        return name not in self._crashed

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition the network into host groups: messages between
        hosts in *different* groups are dropped; hosts in no group are
        unrestricted.  Replaces any active partition."""
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for host in group:
                if host not in self._hosts:
                    raise NetworkError(f"unknown host {host!r} in partition")
                mapping[host] = index
        self._partition = mapping

    def heal_partition(self) -> None:
        self._partition = None

    def _cut_by_partition(self, src: str, dst: str) -> bool:
        if self._partition is None:
            return False
        g1 = self._partition.get(src)
        g2 = self._partition.get(dst)
        return g1 is not None and g2 is not None and g1 != g2

    def _count_drop(
        self, state: _LinkState, size_bytes: int, src: str, dst: str,
        reason: str,
    ) -> None:
        """Account one fault-dropped message on its link (plus the
        per-reason network tally and, when instrumented, a
        ``link.dropped_<reason>`` counter)."""
        stats = state.stats
        stats.dropped += 1
        stats.bytes_dropped += size_bytes
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(
                f"link.dropped_{reason}", link=f"{src}->{dst}"
            ).inc()

    # -- transmission --------------------------------------------------

    def _resolve_link(self, src: str, dst: str) -> _LinkState | None:
        state = self._links.get((src, dst))
        if state is not None:
            return state
        src_host, dst_host = self._hosts[src], self._hosts[dst]
        if src_host.site is not None and src_host.site == dst_host.site:
            # Lazily materialize a site-local link so queueing state
            # persists across messages.
            state = _LinkState(spec=self.LOCAL_LINK)
            self._links[(src, dst)] = state
            return state
        if self.default_link is not None:
            state = _LinkState(spec=self.default_link)
            self._links[(src, dst)] = state
            return state
        return None

    def send(
        self, src: str, dst: str, payload: Any, size_bytes: int = 1000,
        strict: bool = True,
    ) -> bool:
        """Send a message; returns False if it was dropped.

        ``strict=False`` turns a send to an *unknown* destination host
        into an accounted drop instead of a :class:`NetworkError` -- the
        bus uses this so a fault scenario that crashes or removes a
        proxy degrades into drop counters rather than an exception from
        deep inside the event loop.  Sends from an unknown *source* are
        always errors (the caller itself is misconfigured)."""
        if src not in self._hosts:
            raise NetworkError(f"unknown host {src!r}")
        dst_host = self._hosts.get(dst)
        if dst_host is None:
            if strict:
                raise NetworkError(f"unknown host {dst!r}")
            # No link exists to account the drop against; tally it
            # network-wide under the same reason a crashed host uses.
            self.drop_reasons["dst_down"] = (
                self.drop_reasons.get("dst_down", 0) + 1
            )
            if self.metrics is not None:
                self.metrics.counter(
                    "link.dropped_dst_down", link=f"{src}->{dst}"
                ).inc()
            return False
        if size_bytes <= 0:
            raise NetworkError(f"non-positive message size {size_bytes}")
        # The common case inline; _resolve_link materializes the rest.
        state = self._links.get((src, dst)) or self._resolve_link(src, dst)
        if state is None:
            raise NetworkError(f"no link {src!r} -> {dst!r} and no default link")

        spec, stats = state.spec, state.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes

        # Fault checks, in blast-radius order: a crashed endpoint kills
        # every link of the host, a down link only itself.  Each drop is
        # accounted on this link so conservation holds.
        if src in self._crashed:
            self._count_drop(state, size_bytes, src, dst, "src_down")
            return False
        if dst in self._crashed:
            self._count_drop(state, size_bytes, src, dst, "dst_down")
            return False
        if not state.up:
            self._count_drop(state, size_bytes, src, dst, "link_down")
            return False
        if self._partition is not None and self._cut_by_partition(src, dst):
            self._count_drop(state, size_bytes, src, dst, "partition")
            return False
        if state.loss > 0.0 and self._fault_rng is not None and (
            self._fault_rng.random() < state.loss
        ):
            self._count_drop(state, size_bytes, src, dst, "loss")
            return False

        sim = self.sim
        now = done = sim.now
        queue_delay = serialization = 0.0
        # Infinite bandwidth: no queueing, no serialization, and (by
        # LinkSpec validation) no buffer to overflow.
        if spec.bandwidth_bps is not None:
            queued = state.queued_bytes(now)  # retires what has left
            if (
                spec.buffer_bytes is not None
                and queued + size_bytes > spec.buffer_bytes
            ):
                stats.dropped += 1
                stats.bytes_dropped += size_bytes
                return False
            if state.busy_until > now:
                queue_delay = state.busy_until - now
                done = state.busy_until
            serialization = size_bytes * 8 / spec.bandwidth_bps
            state.busy_until = done = done + serialization
            state.serializing.append((done, size_bytes))
            state._queued = queued + size_bytes
        sim.schedule_at(
            done + spec.delay_s * state.delay_multiplier,
            dst_host._deliver, state, size_bytes, src, payload,
        )
        if self.metrics is not None:
            q_hist, s_hist = self._link_obs(state, src, dst)
            q_hist.observe(queue_delay)
            s_hist.observe(serialization)
        return True

    def run(self, until: float | None = None) -> None:
        """Convenience passthrough to the underlying simulator."""
        self.sim.run(until=until)
