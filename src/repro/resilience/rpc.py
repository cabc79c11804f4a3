"""At-least-once delivery for control-plane messages.

The simulated network drops messages (loss windows, link failures,
crashed hosts, partitions -- see :mod:`repro.chaos`), and the bus-driven
installer's correctness used to assume none of that ever happened to a
control RPC.  This module supplies the standard fix, below the
application protocol:

- every message carries a **monotonically increasing id** (one counter
  per :class:`RpcLayer`, so ids are unique across all endpoints);
- the sender keeps a per-message **retransmit timer**: exponential
  backoff with seeded jitter, up to ``max_retries`` attempts, then a
  give-up callback so the coordinator can abort instead of hanging;
- the receiver **acks every message id** and keeps a bounded **dedup
  window**: a re-delivered id is re-acked (the first ack may have been
  the thing that was lost) but *not* re-dispatched to the handler.

The result is at-least-once delivery into handlers that
:mod:`repro.controller.protocol` keeps idempotent (re-delivered
prepare/commit/abort are no-ops there), which composes into effectively
exactly-once application behaviour.

Determinism: jitter comes from one ``random.Random(f"rpc-{seed}")``
consumed in event order, so a chaos soak replays byte-identically from
its seed.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.core.errors import ReproError
from repro.simnet.network import SimNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.events import EventHandle


#: Retransmit timeouts grow by this factor per attempt.
_BACKOFF = 2.0
#: Wire sizes of a message and of its ack.
_MESSAGE_BYTES = 1000
_ACK_BYTES = 100


class RpcError(ReproError):
    """Raised on invalid RPC-layer configuration or use."""


def backoff_delay(
    base_s: float,
    backoff: float,
    jitter: float,
    attempt: int,
    rng: random.Random,
) -> float:
    """The one exponential-backoff-with-jitter formula of the stack.

    ``base_s * backoff**attempt`` scaled by ``1 + jitter * U[0, 1)``.
    Both the RPC retransmit timer and the federation coordinator's
    install retries go through here, so every retry loop in the system
    de-synchronizes the same way and replays byte-identically from its
    seed (the caller owns the rng and its consumption order).
    """
    delay = base_s * (backoff ** attempt)
    return delay * (1.0 + jitter * rng.random())


class BackoffPolicy:
    """A seeded retry-pacing policy around :func:`backoff_delay`.

    Owns its own ``random.Random(f"{name}-{seed}")`` so independent
    retry loops (install retries, queue re-drives) draw from disjoint
    deterministic streams and never perturb the RPC layer's jitter.
    """

    #: First delay, growth per attempt and jitter share.
    BASE_S, BACKOFF, JITTER = 0.25, 2.0, 0.25

    def __init__(self, seed: int = 0, name: str = "backoff"):
        self._rng = random.Random(f"{name}-{seed}")

    def delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        return backoff_delay(
            self.BASE_S, self.BACKOFF, self.JITTER, attempt, self._rng
        )


@dataclass(frozen=True)
class RpcConfig:
    """Retry/timeout knobs of the reliable control channel.

    The defaults fit the deployment geography: one-way control delays
    are 20-40 ms, so a 250 ms first timeout catches a loss quickly
    without firing on a healthy round trip, and six retries with 2x
    backoff push the give-up horizon past any transient loss window or
    link flap the chaos scenarios schedule.
    """

    timeout_s: float = 0.25
    max_retries: int = 6
    #: Uniform multiplicative jitter: each timeout is scaled by
    #: ``1 + jitter * U[0, 1)`` so retransmits from different senders
    #: de-synchronize.
    jitter: float = 0.25
    #: Receiver-side window of recently seen message ids.
    dedup_window: int = 4096

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise RpcError(f"non-positive rpc timeout {self.timeout_s}")
        if self.max_retries < 0:
            raise RpcError(f"negative max_retries {self.max_retries}")
        if self.jitter < 0:
            raise RpcError(f"negative jitter {self.jitter}")
        if self.dedup_window < 1:
            raise RpcError("dedup window must hold at least one id")


class _PendingSend:
    """One un-acked message and its retransmit state."""

    __slots__ = ("id", "dst", "payload", "attempt", "timer", "on_failure")

    def __init__(
        self,
        msg_id: int,
        dst: str,
        payload: Any,
        on_failure: Callable[[str, Any], None] | None,
    ):
        self.id = msg_id
        self.dst = dst
        self.payload = payload
        self.attempt = 0
        self.timer: "EventHandle | None" = None
        self.on_failure = on_failure


class RpcLayer:
    """Shared state of all reliable endpoints on one network: the id
    counter, the jitter RNG, the config, and the transport counters.

    The counters are plain integers; reports read them directly, and
    :func:`repro.obs.collect_resilience` copies them into a registry as
    ``rpc.*_total`` gauges.
    """

    def __init__(
        self,
        network: SimNetwork,
        config: RpcConfig | None = None,
        seed: int = 0,
    ):
        self.network = network
        self.sim = network.sim
        self.config = config or RpcConfig()
        self._rng = random.Random(f"rpc-{seed}")
        self._next_id = 0
        self.endpoints: dict[str, RpcEndpoint] = {}
        # Transport counters.
        self.sent = 0
        self.acked = 0
        self.retries = 0
        self.timeouts = 0
        self.duplicates_suppressed = 0

    def endpoint(
        self, host_name: str, handler: Callable[[str, Any], None]
    ) -> "RpcEndpoint":
        """Create the reliable endpoint for a host and register it as
        the host's receiver.  One endpoint per host."""
        if host_name in self.endpoints:
            raise RpcError(f"host {host_name!r} already has an endpoint")
        endpoint = RpcEndpoint(self, host_name, handler)
        self.endpoints[host_name] = endpoint
        return endpoint

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def outstanding(self) -> int:
        """Un-acked messages across all endpoints."""
        return sum(len(e._pending) for e in self.endpoints.values())


class RpcEndpoint:
    """Reliable send/receive for one host.

    Outbound: :meth:`send` transmits and arms a retransmit timer;
    acks cancel it; exhaustion invokes the per-message ``on_failure``.
    Inbound: RPC messages are acked then deduped before dispatch;
    anything that is not an RPC envelope (e.g. a legacy bare
    ``network.send``) is dispatched to the handler as-is.
    """

    def __init__(
        self,
        layer: RpcLayer,
        host_name: str,
        handler: Callable[[str, Any], None],
    ):
        self.layer = layer
        self.host_name = host_name
        self.handler = handler
        self._pending: dict[int, _PendingSend] = {}
        self._seen: OrderedDict[int, None] = OrderedDict()
        layer.network.host(host_name).on_receive(self._receive)

    # -- sending ---------------------------------------------------------

    def send(
        self,
        dst: str,
        payload: Any,
        on_failure: Callable[[str, Any], None] | None = None,
    ) -> int:
        """Send ``payload`` at-least-once; returns the message id.

        ``on_failure(dst, payload)`` fires if every retransmit went
        unacked -- the caller decides whether that aborts a protocol
        round or is best-effort (pass ``None``).
        """
        pending = _PendingSend(self.layer.next_id(), dst, payload, on_failure)
        self._pending[pending.id] = pending
        self._transmit(pending)
        return pending.id

    def _transmit(self, pending: _PendingSend) -> None:
        layer = self.layer
        cfg = layer.config
        layer.sent += 1
        # strict=False: a crashed/unknown destination becomes an
        # accounted drop; the retransmit timer is the recovery path.
        layer.network.send(
            self.host_name,
            pending.dst,
            {"rpc": "msg", "id": pending.id, "payload": pending.payload},
            _MESSAGE_BYTES,
            strict=False,
        )
        delay = backoff_delay(
            cfg.timeout_s, _BACKOFF, cfg.jitter, pending.attempt, layer._rng
        )
        pending.timer = layer.sim.schedule(delay, self._timeout, pending)

    def _timeout(self, pending: _PendingSend) -> None:
        if pending.id not in self._pending:
            return  # acked in the meantime (timer raced its own cancel)
        layer = self.layer
        if pending.attempt >= layer.config.max_retries:
            del self._pending[pending.id]
            layer.timeouts += 1
            if pending.on_failure is not None:
                pending.on_failure(pending.dst, pending.payload)
            return
        pending.attempt += 1
        layer.retries += 1
        self._transmit(pending)

    def cancel_matching(self, predicate: Callable[[Any], bool]) -> int:
        """Drop un-acked sends whose payload matches (no more
        retransmits, no failure callback).  Used when the coordinator
        abandons a protocol round: the receivers' epoch guards make any
        copy already in flight a no-op, so retrying it is pure noise."""
        doomed = [
            p for p in self._pending.values() if predicate(p.payload)
        ]
        for pending in doomed:
            if pending.timer is not None:
                pending.timer.cancel()
            del self._pending[pending.id]
        return len(doomed)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    # -- receiving -------------------------------------------------------

    def _receive(self, sender: str, message: Any) -> None:
        layer = self.layer
        kind = message.get("rpc") if isinstance(message, dict) else None
        if kind == "ack":
            pending = self._pending.pop(message["id"], None)
            if pending is not None:
                if pending.timer is not None:
                    pending.timer.cancel()
                layer.acked += 1
            return
        if kind != "msg":
            # Not an RPC envelope: a legacy bare send -- dispatch as-is.
            self.handler(sender, message)
            return
        msg_id = message["id"]
        # Ack first, even for duplicates: the previous ack may be the
        # thing the network lost.
        layer.network.send(
            self.host_name,
            sender,
            {"rpc": "ack", "id": msg_id},
            _ACK_BYTES,
            strict=False,
        )
        if msg_id in self._seen:
            layer.duplicates_suppressed += 1
            return
        self._seen[msg_id] = None
        while len(self._seen) > layer.config.dedup_window:
            self._seen.popitem(last=False)
        self.handler(sender, message["payload"])
