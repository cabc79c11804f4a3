"""Snapshot collectors: fold accumulated subsystem stats into gauges.

Each count lives in one place: the plain attribute of the component
that does the work (``LinkStats``, ``RpcLayer.sent``,
``FlowTable.hits``, ``Forwarder.packets_forwarded`` ...).  These
collectors copy those totals into a registry at report time; no
component mirrors them into live registry counters.  Collect is
idempotent -- gauges are *set*, not added -- so calling it repeatedly
(e.g. periodically from a simulator process) just refreshes the
snapshot.

Snapshot gauges of cumulative totals carry a ``_total`` suffix (e.g.
``link.delivered_total``); point-in-time quantities
(``link.in_flight``, ``flowtable.entries``) keep plain names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bus.bus import GlobalMessageBus
    from repro.controller.protocol import BusDrivenInstaller
    from repro.dataplane.forwarder import DataPlane
    from repro.federation.coordinator import GlobalCoordinator
    from repro.simnet.network import SimNetwork


def collect_network(registry: MetricsRegistry, net: "SimNetwork") -> None:
    """Per-link delivery/drop/backlog gauges from ``LinkStats``."""
    for (src, dst), state in net._links.items():
        link = f"{src}->{dst}"
        stats = state.stats
        registry.gauge("link.sent_total", link=link).set(stats.sent)
        registry.gauge("link.delivered_total", link=link).set(stats.delivered)
        registry.gauge("link.dropped_total", link=link).set(stats.dropped)
        registry.gauge("link.in_flight", link=link).set(stats.in_flight)
        registry.gauge("link.bytes_sent_total", link=link).set(stats.bytes_sent)
        registry.gauge("link.bytes_dropped_total", link=link).set(
            stats.bytes_dropped
        )
        registry.gauge("link.queued_bytes", link=link).set(
            state.queued_bytes(net.sim.now)
        )


def collect_bus(registry: MetricsRegistry, bus: "GlobalMessageBus") -> None:
    """Topology-level pub/sub totals from ``BusStats``.  Delivery
    latency is not re-observed here: the bus records each sample once,
    live, in ``bus.delivery_latency_s{topic}``."""
    stats = bus.stats
    registry.gauge("bus.published_total").set(stats.published)
    registry.gauge("bus.wan_messages_total").set(stats.wan_messages)
    registry.gauge("bus.wan_drops_total").set(stats.wan_drops)
    registry.gauge("bus.delivered_total").set(stats.delivered)


def collect_resilience(
    registry: MetricsRegistry,
    installer: "BusDrivenInstaller",
) -> None:
    """Control-plane reliability totals: RPC delivery effort and
    install outcomes."""
    rpc = installer.rpc
    registry.gauge("rpc.sent_total").set(rpc.sent)
    registry.gauge("rpc.acked_total").set(rpc.acked)
    registry.gauge("rpc.retries_total").set(rpc.retries)
    registry.gauge("rpc.timeouts_total").set(rpc.timeouts)
    registry.gauge("rpc.duplicates_suppressed_total").set(
        rpc.duplicates_suppressed
    )
    registry.gauge("rpc.outstanding").set(rpc.outstanding())
    registry.gauge("install.deadline_aborts_total").set(
        installer.deadline_aborts
    )
    registry.gauge("install.aborted_total").set(installer.aborted)
    registry.gauge("deadline.expired_total").set(installer.deadlines.expired)
    registry.gauge("resilience.inflight_installs").set(
        len(installer._pending)
    )


def collect_federation(
    registry: MetricsRegistry,
    coordinator: "GlobalCoordinator",
    failover=None,
    nodes=None,
) -> None:
    """Federated control-plane snapshot gauges.

    Live ``federation.*`` counters (2PC phases, install counts, the
    ``federation.region_solve_s`` histogram) accumulate on the
    coordinator's own registry when one is attached; this collector
    adds the point-in-time shape of the federation -- shard/border
    structure, installed-chain split, segment population, and border
    ledger occupancy -- so a report is complete even for a coordinator
    built without metrics.

    ``failover`` (a :class:`~repro.federation.ha.FederationFailover`)
    and ``nodes`` (the deployed
    :class:`~repro.federation.nodes.RegionalNode` front ends) add the
    resilience totals: takeovers, reconciliations, degraded-mode intra
    admissions, and the per-region cross-shard queue depth.
    """
    stats = coordinator.stats()
    registry.gauge("federation.regions").set(stats["regions"])
    registry.gauge("federation.borders").set(stats["borders"])
    registry.gauge("federation.chains_intra").set(stats["chains_intra"])
    registry.gauge("federation.chains_cross").set(stats["chains_cross"])
    registry.gauge("federation.cross_shard_ratio").set(
        stats["cross_shard_ratio"]
    )
    for region, regional in sorted(coordinator.regionals.items()):
        registry.gauge("federation.region_chains", region=region).set(
            len(regional.model.chains)
        )
        registry.gauge("federation.region_segments", region=region).set(
            len(regional.committed_segments())
        )
        registry.gauge("federation.region_prepared", region=region).set(
            len(regional.prepared_segments())
        )
    for name, utilization in sorted(
        coordinator.border_utilization().items()
    ):
        registry.gauge("federation.border_utilization", border=name).set(
            utilization
        )
    if failover is not None:
        registry.gauge("federation.failovers_total").set(failover.takeovers)
    reconciliations = getattr(coordinator, "reconciliations", None)
    if reconciliations is not None:
        registry.gauge("federation.ledger_reconciliations_total").set(
            reconciliations
        )
    if nodes is not None:
        total_queued = 0
        total_degraded = 0
        for node in nodes:
            queued = len(node.queued())
            total_queued += queued
            total_degraded += node.degraded_admissions
            registry.gauge(
                "federation.queued_cross_shard", region=node.region
            ).set(queued)
        registry.gauge("federation.queued_cross_shard_total").set(
            total_queued
        )
        registry.gauge("federation.degraded_admissions_total").set(
            total_degraded
        )


def collect_dataplane(registry: MetricsRegistry, dataplane: "DataPlane") -> None:
    """Per-forwarder flow-table and packet gauges."""
    for name, fwd in dataplane.forwarders.items():
        registry.gauge("forwarder.packets_forwarded_total", forwarder=name).set(
            fwd.packets_forwarded
        )
        registry.gauge("forwarder.packets_dropped_total", forwarder=name).set(
            fwd.packets_dropped
        )
        registry.gauge("forwarder.rules", forwarder=name).set(len(fwd.rules))
        table = fwd.flow_table
        registry.gauge("flowtable.entries", forwarder=name).set(len(table))
        registry.gauge("flowtable.hits_total", forwarder=name).set(table.hits)
        registry.gauge("flowtable.misses_total", forwarder=name).set(
            table.misses
        )
