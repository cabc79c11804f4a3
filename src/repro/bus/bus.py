"""The proxy-per-site global message bus.

Topology (per Section 6): every site runs a message-queuing proxy;
publishers and subscribers connect to their local proxy over the site
LAN.  A subscription for a topic is installed *at the proxy of the
topic's publisher site*.  Publishing sends the message once to the local
proxy; the proxy forwards one copy per subscribed *site* through the
site's WAN uplink; each receiving proxy fans out locally.

The WAN uplink (finite bandwidth + finite buffer) is the shared resource
whose queueing separates this design from full-mesh broadcast in
Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from repro.bus.topics import Topic
from repro.core.errors import ReproError
from repro.simnet.network import LinkSpec, SimNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class BusError(ReproError):
    """Raised on invalid bus construction or use."""


@dataclass
class Delivery:
    """One delivered message, for latency accounting."""

    topic: str
    subscriber: str
    published_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.published_at


@dataclass
class BusStats:
    """Counters for bus comparisons (Figure 9)."""

    published: int = 0
    wan_messages: int = 0
    wan_drops: int = 0
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def delivered(self) -> int:
        return len(self.deliveries)

    def latencies(self) -> list[float]:
        return [d.latency for d in self.deliveries]

    def mean_latency(self) -> float:
        lats = self.latencies()
        return sum(lats) / len(lats) if lats else float("nan")

    def p99_latency(self) -> float:
        lats = sorted(self.latencies())
        if not lats:
            return float("nan")
        return lats[min(len(lats) - 1, int(0.99 * len(lats)))]


def proxy_name(site: str) -> str:
    return f"proxy.{site}"


def gateway_name(site: str) -> str:
    return f"wan.{site}"


def build_bus_network(
    sites: Sequence[str],
    wan_delay_s: Mapping[tuple[str, str], float] | float,
    uplink_bps: float = 100e6,
    uplink_buffer_bytes: int = 256_000,
    network: SimNetwork | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> SimNetwork:
    """Create the proxy + WAN-gateway hosts for a multi-site bus.

    Each site gets a proxy and a gateway; the proxy->gateway link is the
    site's shared WAN uplink (finite bandwidth and buffer -- the
    congestion point), and gateway->remote-proxy links carry the
    propagation delay.  ``wan_delay_s`` is either a per-pair map or one
    uniform one-way delay.
    """
    net = network if network is not None else SimNetwork(metrics=metrics)
    for site in sites:
        net.add_host(proxy_name(site), site=site)
        net.add_host(gateway_name(site), site=site)
        net.connect(
            proxy_name(site),
            gateway_name(site),
            LinkSpec(delay_s=0.0, bandwidth_bps=uplink_bps,
                     buffer_bytes=uplink_buffer_bytes),
            bidirectional=False,
        )
    for a in sites:
        for b in sites:
            if a == b:
                continue
            delay = (
                wan_delay_s
                if isinstance(wan_delay_s, (int, float))
                else wan_delay_s[(a, b)]
            )
            net.connect(
                gateway_name(a),
                proxy_name(b),
                LinkSpec(delay_s=float(delay)),
                bidirectional=False,
            )
    return net


@dataclass
class BusClient:
    """A publisher/subscriber attached to its site's proxy."""

    name: str
    site: str
    received: list[tuple[float, str, Any]] = field(default_factory=list)
    #: Fallback callback for deliveries on topics without their own.
    callback: Callable[[str, Any], None] | None = None
    #: Per-topic callbacks: one client (e.g. a Local Switchboard) can
    #: hold many concurrent subscriptions -- one per in-flight chain --
    #: without them clobbering each other.
    topic_callbacks: dict[str, Callable[[str, Any], None]] = field(
        default_factory=dict
    )


class GlobalMessageBus:
    """The Switchboard bus with publisher-site subscription filters."""

    #: Default control/data message size on the wire (bytes).
    MESSAGE_BYTES = 1000

    def __init__(
        self,
        network: SimNetwork,
        sites: Sequence[str],
        metrics: "MetricsRegistry | None" = None,
    ):
        self.network = network
        self.sites = list(sites)
        self.stats = BusStats()
        self.metrics = metrics
        self.clients: dict[str, BusClient] = {}
        # Publisher-site proxy state: topic -> set of subscriber sites.
        self._site_filters: dict[str, dict[str, set[str]]] = {
            site: {} for site in self.sites
        }
        # Subscriber-site proxy state: topic -> local subscriber names.
        self._local_subscribers: dict[str, dict[str, list[str]]] = {
            site: {} for site in self.sites
        }
        for site in self.sites:
            self.network.host(proxy_name(site)).on_receive(
                self._make_proxy_receiver(site)
            )
            self.network.host(gateway_name(site)).on_receive(
                self._make_gateway_relay(site)
            )

    @classmethod
    def build(
        cls,
        sites: Sequence[str],
        wan_delay_s: Mapping[tuple[str, str], float] | float,
        uplink_bps: float = 100e6,
        uplink_buffer_bytes: int = 256_000,
        network: SimNetwork | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> "GlobalMessageBus":
        """Build the network and a ready-to-use bus of this class in one
        call (proxies, gateways and their relays wired)."""
        net = build_bus_network(
            sites, wan_delay_s, uplink_bps, uplink_buffer_bytes, network, metrics
        )
        return cls(net, sites, metrics=metrics)

    # -- clients --------------------------------------------------------

    def attach(self, name: str, site: str) -> BusClient:
        """Attach a client host at a site (creates the host + LAN link)."""
        if name in self.clients:
            raise BusError(f"duplicate client {name!r}")
        if site not in self._site_filters:
            raise BusError(f"unknown site {site!r}")
        client = BusClient(name, site)
        self.clients[name] = client
        host = self.network.add_host(name, site=site)
        host.on_receive(self._make_client_receiver(client))
        return client

    def subscribe(
        self,
        client_name: str,
        topic: Topic | str,
        callback: Callable[[str, Any], None] | None = None,
    ) -> None:
        """Install a subscription.  Idempotent: re-subscribing an
        already-subscribed client only refreshes its callback.

        The ``callback`` is registered *for this topic*: a client with
        many live subscriptions (a Local Switchboard watching several
        in-flight chains) gets each topic's deliveries routed to that
        topic's callback, falling back to the client-wide
        :attr:`BusClient.callback` for topics without one.

        The filter lands at the proxy of the topic's *publisher* site
        (inferred from the topic); the subscriber's own proxy records the
        local fan-out entry.
        """
        topic = Topic.parse(topic) if isinstance(topic, str) else topic
        client = self._client(client_name)
        key = str(topic)
        if callback is not None:
            client.topic_callbacks[key] = callback
        publisher_site = topic.publisher_site
        if publisher_site not in self._site_filters:
            raise BusError(f"topic names unknown site {publisher_site!r}")
        self._site_filters[publisher_site].setdefault(key, set()).add(client.site)
        locals_ = self._local_subscribers[client.site].setdefault(key, [])
        if client.name not in locals_:
            locals_.append(client.name)
        if self.metrics is not None:
            self.metrics.counter("bus.subscriptions", topic=key).inc()

    def unsubscribe(self, client_name: str, topic: Topic | str) -> None:
        """Remove a subscription; the exact inverse of :meth:`subscribe`.
        When the last local subscriber for the topic leaves, the site's
        entry in the publisher-site filter is cleared too, so the
        publisher's proxy stops sending WAN copies this way."""
        topic = Topic.parse(topic) if isinstance(topic, str) else topic
        client = self._client(client_name)
        key = str(topic)
        locals_ = self._local_subscribers[client.site].get(key, [])
        client.topic_callbacks.pop(key, None)
        if client.name in locals_:
            locals_.remove(client.name)
        if not locals_:
            self._local_subscribers[client.site].pop(key, None)
            publisher_filters = self._site_filters[topic.publisher_site]
            sites = publisher_filters.get(key)
            if sites is not None:
                sites.discard(client.site)
                if not sites:
                    publisher_filters.pop(key, None)

    def publish(
        self,
        client_name: str,
        topic: Topic | str,
        payload: Any,
        size_bytes: int | None = None,
    ) -> bool:
        """Publish a message from a client (sent to its local proxy).

        Returns whether the *first hop* (client -> local proxy) was
        accepted by the network; ``False`` means the message is already
        an accounted drop (crashed client or proxy, dead local link).
        Delivery past the proxy is still best-effort -- WAN faults
        surface in :attr:`stats` -- so a ``True`` is not an end-to-end
        acknowledgement.  Callers needing reliable control-plane
        delivery should use :mod:`repro.resilience.rpc` instead.
        """
        topic = Topic.parse(topic) if isinstance(topic, str) else topic
        client = self._client(client_name)
        self.stats.published += 1
        if self.metrics is not None:
            self.metrics.counter("bus.published", topic=str(topic)).inc()
        message = {
            "kind": "pub",
            "topic": str(topic),
            "payload": payload,
            "published_at": self.network.sim.now,
            "size": size_bytes or self.MESSAGE_BYTES,
        }
        # strict=False: a crashed or removed proxy turns the publish
        # into an accounted drop rather than a NetworkError from deep
        # inside a fault scenario (see repro.chaos).
        return self.network.send(
            client.name,
            proxy_name(client.site),
            message,
            size_bytes or self.MESSAGE_BYTES,
            strict=False,
        )

    # -- proxy / client behaviour -------------------------------------------

    def _make_proxy_receiver(self, site: str):
        def receive(sender: str, message: dict) -> None:
            if message.get("kind") != "pub":
                return
            if sender in self.clients:
                self._fan_out(site, message)
            else:
                # Arriving from the WAN gateway (or over a direct
                # inter-proxy wiring): fan out to local subscribers.
                self._deliver_local(site, message)

        return receive

    def _fan_out(self, site: str, message: dict) -> None:
        """Publisher-site proxy: one WAN copy per subscribed site."""
        subscriber_sites = self._site_filters[site].get(message["topic"], set())
        for target_site in sorted(subscriber_sites):
            if target_site == site:
                self._deliver_local(site, message)
            else:
                self._send_wan(site, {**message, "dest_site": target_site})

    def _send_wan(self, site: str, message: dict) -> None:
        """Push one copy, addressed by its ``dest_site``, through the
        site's WAN uplink, counting it and (if the uplink refuses it) its
        drop."""
        key = message["topic"]
        metrics = self.metrics
        self.stats.wan_messages += 1
        if metrics is not None:
            metrics.counter("bus.wan_messages", site=site, topic=key).inc()
        sent = self.network.send(
            proxy_name(site), gateway_name(site), message, message["size"],
            strict=False,
        )
        if not sent:
            self.stats.wan_drops += 1
            if metrics is not None:
                metrics.counter("bus.wan_drops", site=site, topic=key).inc()

    def _deliver_local(self, site: str, message: dict) -> None:
        key = message["topic"]
        for subscriber in self._local_subscribers[site].get(key, []):
            self.network.send(
                proxy_name(site), subscriber, message, message["size"],
                strict=False,
            )

    def _make_client_receiver(self, client: BusClient):
        def receive(sender: str, message: dict) -> None:
            now = self.network.sim.now
            client.received.append((now, message["topic"], message["payload"]))
            self.stats.deliveries.append(
                Delivery(message["topic"], client.name, message["published_at"], now)
            )
            if self.metrics is not None:
                self.metrics.histogram(
                    "bus.delivery_latency_s", topic=message["topic"]
                ).observe(now - message["published_at"])
            callback = client.topic_callbacks.get(
                message["topic"], client.callback
            )
            if callback is not None:
                callback(message["topic"], message["payload"])

        return receive

    def _make_gateway_relay(self, site: str):
        def relay(sender: str, message: dict) -> None:
            # The gateway forwards each WAN copy to its destination proxy.
            dest = message.get("dest_site")
            if dest is not None:
                self.network.send(
                    gateway_name(site), proxy_name(dest), message,
                    message["size"], strict=False,
                )

        return relay

    def _client(self, name: str) -> BusClient:
        try:
            return self.clients[name]
        except KeyError:
            raise BusError(f"unknown client {name!r}") from None


make_bus = GlobalMessageBus.build
