"""The Figure 4 message flow as a discrete-event protocol on the bus.

Where :mod:`repro.controller.timing` replays the paper's latency budget
as fixed steps, this module makes the control-plane latency *emerge*
from actual messages: Global Switchboard, the edge controller, the VNF
controllers, and the Local Switchboards are hosts on a simulated
network, the route/label and instance announcements travel over the
real :class:`~repro.bus.bus.GlobalMessageBus`, and the two-phase commit
is request/response RPC with wide-area propagation.

The protocol drives the same state objects as the synchronous
:meth:`GlobalSwitchboard.create_chain` -- it *is* the same installation,
just spread over simulated time -- so a test can assert that the end
state (routes, commitments, rules) is identical while the timeline
reflects the deployment's geography.

Message sequence (the numbered arrows of Figure 4):

1. chain spec reaches Global Switchboard;
2. GS resolves ingress/egress sites with the edge controller (RPC);
3. GS computes the route and 2PCs capacity with each VNF controller on
   it (prepare RPCs, then commit RPCs; a rejection triggers recompute);
4. GS publishes the route + labels on the bus; edge and VNF controllers
   configure/allocate and publish their instances;
5. each Local Switchboard, having both the route and the instance info,
   compiles and installs its site's rules (+ data-plane config delay).

Installation completes when every site on the route has configured.

Fault tolerance (:mod:`repro.resilience`): control RPCs ride the
at-least-once :class:`~repro.resilience.rpc.RpcLayer`; the 2PC rounds
are the shared core (:mod:`repro.controller.twopc`), whose messages are
stamped with the **attempt number** and whose per-(chain, vnf, site)
fence at the receivers makes stale rounds (a retransmitted abort
racing a fresh prepare) no-ops; a per-install **deadline** triggers
:meth:`BusDrivenInstaller.abort_install`, which tears down every
participant and rolls the coordinator back; a per-install **re-drive
tick** re-sends the phase-appropriate messages that travel over bare or
pub/sub channels (chain request, edge configure, instance allocation);
and, given a :class:`~repro.controller.replication.ReplicatedStore`,
the installer checkpoints installations and keeps an install-log record
per 2PC in flight, so a standby controller can resume or abort after a
failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.replication import ReplicatedStore
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Span
    from repro.simnet.events import EventHandle

from repro.bus.bus import GlobalMessageBus, gateway_name, proxy_name
from repro.bus.topics import Topic
from repro.controller import replication, twopc
from repro.controller.chainspec import ChainSpecification
from repro.controller.global_switchboard import (
    ChainInstallation,
    GlobalSwitchboard,
    InstallationError,
)
from repro.core.errors import ReproError
from repro.core.model import Chain
from repro.resilience.deadline import DeadlineManager, ResilienceConfig
from repro.resilience.rpc import RpcLayer
from repro.simnet.network import LinkSpec
from repro.vnf.service import AllocationError

_EPS = 1e-9
#: Period of the per-install re-drive tick that re-sends
#: phase-appropriate messages (chain request, edge configure, instance
#: allocation) lost to bare, un-acked channels.
_REDRIVE_INTERVAL_S = 0.75


class ProtocolError(ReproError):
    """Raised on invalid protocol configuration."""


@dataclass(frozen=True)
class ProtocolDelays:
    """Processing times charged at each element (propagation comes from
    the simulated network)."""

    route_compute_s: float = 0.010
    controller_processing_s: float = 0.005
    instance_allocation_s: float = 0.020
    rule_compute_s: float = 0.002
    dataplane_config_s: float = 0.093


@dataclass
class InstallationTimeline:
    """Timestamps of the Figure 4 milestones (simulated seconds)."""

    requested_at: float = 0.0
    sites_resolved_at: float | None = None
    route_committed_at: float | None = None
    route_published_at: float | None = None
    #: site -> time its rules were fully installed.
    site_configured_at: dict[str, float] = field(default_factory=dict)
    completed_at: float | None = None
    failed: str | None = None
    installation: ChainInstallation | None = None

    @property
    def total_s(self) -> float:
        if self.completed_at is None:
            return float("inf")
        return self.completed_at - self.requested_at


class BusDrivenInstaller:
    """Runs chain installations as timed message exchanges.

    Construction wires one host per controller onto the bus network:
    Global Switchboard at ``gs_site``, the edge controller at
    ``edge_site``, one VNF-controller host per VNF service (at the
    service's first deployment site), and one Local-Switchboard client
    per cloud site (attached to the bus for route/instance topics).

    ``resilience`` configures the hardening stack (RPC retries, install
    deadlines, re-drive); ``store`` enables durable checkpoints and
    install-log records for standby-controller failover.
    """

    def __init__(
        self,
        gs: GlobalSwitchboard,
        bus: GlobalMessageBus,
        gs_site: str,
        edge_controller_site: str,
        vnf_controller_sites: dict[str, str],
        metrics: "MetricsRegistry | None" = None,
        resilience: ResilienceConfig | None = None,
        store: "ReplicatedStore | None" = None,
    ):
        self.gs = gs
        self.bus = bus
        self.network = bus.network
        self.sim = bus.network.sim
        self.delays = ProtocolDelays()
        #: Observability sink; spans measure *simulated* seconds when the
        #: registry's clock is this network's simulator.
        self.metrics = metrics
        self.resilience = resilience or ResilienceConfig()
        self.store = store
        self.log = replication.InstallLog(store)
        if store is not None:
            gs.removal_hooks.append(self._remove_checkpoint)

        host_sites: dict[str, str] = {}

        def add_host(name: str, site: str) -> None:
            if site not in bus.sites:
                raise ProtocolError(f"unknown bus site {site!r}")
            self.network.add_host(name, site=site)
            host_sites[name] = site

        self.gs_host = "ctrl.gs"
        add_host(self.gs_host, gs_site)
        self.edge_host = "ctrl.edge"
        add_host(self.edge_host, edge_controller_site)
        self.vnf_hosts: dict[str, str] = {}
        for vnf_name, site in vnf_controller_sites.items():
            host = f"ctrl.vnf.{vnf_name}"
            add_host(host, site)
            self.vnf_hosts[vnf_name] = host

        # Direct control links between controllers carry the same WAN
        # propagation as the inter-site bus links, so RPC latency is
        # geography-dependent (same-site hosts use the LAN implicitly).
        #: Cross-site control link endpoints, for targeted fault
        #: injection (the chaos ``control_loss`` event).
        self.control_pairs: list[tuple[str, str]] = []
        names = list(host_sites)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                site_a, site_b = host_sites[a], host_sites[b]
                if site_a == site_b:
                    continue
                self.network.connect(
                    a, b, LinkSpec(delay_s=self._delay_between(site_a, site_b))
                )
                self.control_pairs.append((a, b))
        # Local Switchboards are bus clients at their sites.
        self.local_clients: dict[str, str] = {}
        for site in gs.locals:
            client = f"lsb.{site}"
            bus.attach(client, site)
            self.local_clients[site] = client
        # The GS also speaks on the bus (publishing routes).
        bus.attach("gsb.pub", gs_site)

        self._pending: dict[str, _PendingInstall] = {}
        #: Participant-side attempt epochs, keyed (chain, vnf, site).
        self._fence = twopc.Fence()
        self.deadline_aborts = 0
        self.aborted = 0

        # Reliable control endpoints (each registers itself as its
        # host's receiver; bare legacy sends pass through unchanged).
        self.rpc = RpcLayer(
            self.network, self.resilience.rpc, seed=self.resilience.seed
        )
        self._gs_handlers = {
            "chain_request": self._on_chain_request,
            "sites_resolved": self._on_sites_resolved,
            "prepare_ack": self._on_ack,
            "commit_ack": self._on_ack,
        }
        self._gs_rpc = self.rpc.endpoint(self.gs_host, self._gs_receive)
        self._edge_rpc = self.rpc.endpoint(self.edge_host, self._edge_receive)
        self._vnf_rpc = {
            vnf_name: self.rpc.endpoint(host, self._make_vnf_receiver(vnf_name))
            for vnf_name, host in self.vnf_hosts.items()
        }
        self.deadlines = DeadlineManager(self.sim)

    def _delay_between(self, site_a: str, site_b: str) -> float:
        """One-way control-RPC delay between two sites.

        Reads the bus network's gateway->proxy link for the pair (the
        same WAN the pub/sub traffic crosses); falls back to 20 ms.
        """
        link = self.network._links.get(
            (gateway_name(site_a), proxy_name(site_b))
        )
        if link is not None:
            return link.spec.delay_s
        return 0.020

    # -- tracing helpers -------------------------------------------------

    def _start_stage(self, pending: "_PendingInstall", stage: str) -> None:
        if self.metrics is None:
            return
        pending.spans[stage] = self.metrics.start_span(
            stage, chain=pending.spec.name
        )

    def _finish_stage(self, pending: "_PendingInstall", stage: str) -> None:
        if self.metrics is None:
            return
        span = pending.spans.pop(stage, None)
        if span is not None:
            span.finish()

    def _finish_open_stages(self, pending: "_PendingInstall") -> None:
        for stage in list(pending.spans):
            self._finish_stage(pending, stage)

    # -- durable state (checkpoints + the install log) ---------------------

    def _durably(self, write, *args) -> None:
        """Apply one durable write, if there is a store; a degraded
        store (quorum lost) costs durability, not the install."""
        if self.store is None:
            return
        try:
            write(*args)
        except replication.ReplicationError:
            pass

    def _log_phase(self, pending: "_PendingInstall", phase: str) -> None:
        self._durably(
            self.log.put,
            pending.spec.name,
            phase,
            replication.participants_to_doc(pending.loads),
            pending.machine.attempt,
        )

    def _checkpoint(self, installation: ChainInstallation) -> None:
        self._durably(replication.checkpoint_installation, self.store, installation)

    def _remove_checkpoint(self, chain_name: str) -> None:
        self._durably(replication.remove_checkpoint, self.store, chain_name)

    # -- public API ------------------------------------------------------

    def install(
        self,
        spec: ChainSpecification,
        on_complete: Callable[[InstallationTimeline], None] | None = None,
    ) -> InstallationTimeline:
        """Start an installation; returns its (live) timeline object.

        Run the simulator (``installer.network.run()``) to drive it to
        completion; the timeline fills in as milestones pass.  If the
        install has not completed by ``resilience.install_deadline_s``
        it is aborted and rolled back, and the timeline reports the
        failure.
        """
        timeline = InstallationTimeline(requested_at=self.sim.now)
        pending = _PendingInstall(spec, timeline, on_complete)
        self._pending[spec.name] = pending
        self._start_stage(pending, "install.total")
        self._start_stage(pending, "install.resolve")
        self.deadlines.arm(
            spec.name, self.resilience.install_deadline_s, self._on_deadline
        )
        pending.redrive = self.sim.schedule(
            _REDRIVE_INTERVAL_S, self._redrive_tick, spec.name
        )
        # Arrow 0: the portal's request reaches Global Switchboard.  A
        # bare send (the portal is a bus client, which cannot speak the
        # RPC envelope); the re-drive tick re-sends it if lost.
        self.sim.schedule(
            0.0,
            self.network.send,
            "gsb.pub",
            self.gs_host,
            {"type": "chain_request", "chain": spec.name},
        )
        return timeline

    def abort_install(self, name: str, reason: str) -> bool:
        """Unilaterally abort an in-flight installation and roll
        everything back: fence and tear down every participant that may
        hold reservations or commitments, undo router/model/label state
        at the coordinator, drop the durable records, and report a failed
        timeline.  Idempotent; returns False if the install is not
        pending (already completed, failed, or unknown)."""
        pending = self._pending.get(name)
        if pending is None or pending.timeline.completed_at is not None:
            return False
        self.aborted += 1
        # Stop retransmitting anything about this chain: receivers'
        # epoch guards make copies already in flight no-ops.
        for endpoint in self.rpc.endpoints.values():
            endpoint.cancel_matching(
                lambda p: isinstance(p, dict) and p.get("chain") == name
            )
        # Fence + release every participant the 2PC may have touched.
        for vnf_name, site in sorted(set(pending.loads)):
            self.send_teardown(vnf_name, name, site)
        # Coordinator-side rollback, by how far the install progressed.
        if name in self.gs.installations:
            self.gs.remove_chain(name)
        else:
            self._forget(name)
        self._remove_checkpoint(name)
        self._fail(pending, reason)
        return True

    def send_teardown(self, vnf_name: str, chain: str, site: str) -> None:
        """Reliably tell a VNF controller to drop *all* state for a
        (chain, site): the reservation and the committed allocation.
        Carries the tombstone attempt, permanently fencing late 2PC
        messages for the chain there."""
        self._gs_rpc.send(
            self.vnf_hosts[vnf_name],
            {
                "type": "teardown",
                "chain": chain,
                "vnf": vnf_name,
                "site": site,
                "attempt": twopc.TOMBSTONE,
            },
        )

    def release_orphan(self, name: str, participants) -> None:
        """Settle an install a dead coordinator left mid-2PC, with no
        pending entry here: tear down every participant of its record,
        forget the chain unless it is installed, and clear the record."""
        for vnf_name, site in sorted(replication.participants_from_doc(participants)):
            if vnf_name in self.vnf_hosts:
                self.send_teardown(vnf_name, name, site)
        if name not in self.gs.installations:
            self._forget(name)
            self._remove_checkpoint(name)
        self._durably(self.log.clear, name)

    def _forget(self, name: str) -> None:
        """Undo the coordinator state of a chain never installed."""
        if name in self.gs.model.chains:
            self.gs.router.rollback(name)
            self.gs.model.remove_chain(name)
        self.gs.labels.release(name)

    def reconfigure(self, name: str) -> None:
        """Re-apply the idempotent configuration of an installed chain
        (instances, edge classifiers, rules) from its durable record,
        and clear its install record."""
        gs = self.gs
        installation = gs.installations[name]
        gs._assign_instances(installation)
        edge = gs.edge_controllers.get(installation.spec.edge_service)
        if edge is not None:
            gs._configure_edges(installation, edge)
        if name in gs.model.chains:
            gs._install_rules(installation)
        self._durably(self.log.clear, name)

    def redrive(self, name: str) -> None:
        """Re-send the phase-appropriate messages for a pending install.

        Reliable RPCs retry themselves; this covers the hops that do
        not: the initial bare chain request, and (post-publish) the edge
        configuration and instance allocations whose effects travel
        over the at-most-once pub/sub bus.  Every re-driven action is
        idempotent downstream.  Used by the periodic tick and by a
        standby controller after failover.
        """
        pending = self._pending.get(name)
        if pending is None or pending.timeline.completed_at is not None:
            return
        timeline = pending.timeline
        if timeline.sites_resolved_at is None:
            if not pending.sites_requested:
                self.network.send(
                    "gsb.pub",
                    self.gs_host,
                    {"type": "chain_request", "chain": name},
                    strict=False,
                )
        elif timeline.route_published_at is not None:
            self._drive_configure(pending)
        # Between those milestones the 2PC is in flight and its RPCs
        # carry their own retransmit timers.

    # -- deadline / re-drive internals ------------------------------------

    def _on_deadline(self, name: str) -> None:
        self.deadline_aborts += 1
        self.abort_install(name, "installation deadline expired")

    def _redrive_tick(self, name: str) -> None:
        pending = self._pending.get(name)
        if pending is None:
            return
        self.redrive(name)
        pending.redrive = self.sim.schedule(
            _REDRIVE_INTERVAL_S, self._redrive_tick, name
        )

    def _cancel_redrive(self, pending: "_PendingInstall") -> None:
        if pending.redrive is not None:
            pending.redrive.cancel()
            pending.redrive = None

    def _rpc_gave_up(self, dst: str, payload) -> None:
        """A critical control RPC exhausted its retries: the peer is
        unreachable beyond what retransmits can fix, so abort the
        install rather than hang until the deadline."""
        chain = payload.get("chain") if isinstance(payload, dict) else None
        if chain is not None:
            self.abort_install(chain, f"control rpc to {dst} gave up")

    def _drive_configure(self, pending: "_PendingInstall") -> None:
        spec = pending.spec
        if not pending.edge_configured:
            self._gs_rpc.send(
                self.edge_host,
                {"type": "configure_edge", "chain": spec.name},
                self._rpc_gave_up,
            )
        for vnf_name, site in sorted(set(pending.loads)):
            self._gs_rpc.send(
                self.vnf_hosts[vnf_name],
                {"type": "allocate", "chain": spec.name, "site": site},
                self._rpc_gave_up,
            )

    # -- Global Switchboard host -------------------------------------------

    def _gs_receive(self, sender: str, message: dict) -> None:
        handler = self._gs_handlers.get(message.get("type"))
        if handler is not None:
            handler(message)

    def _on_chain_request(self, message: dict) -> None:
        pending = self._pending.get(message["chain"])
        if pending is None or pending.sites_requested:
            return  # unknown chain, or a re-driven duplicate request
        pending.sites_requested = True
        # Arrow 1: resolve ingress/egress sites with the edge controller.
        self.sim.schedule(
            self.delays.controller_processing_s,
            self._gs_rpc.send,
            self.edge_host,
            {
                "type": "resolve_sites",
                "chain": pending.spec.name,
                "ingress": pending.spec.ingress_attachment,
                "egress": pending.spec.egress_attachment,
            },
            self._rpc_gave_up,
        )

    def _edge_receive(self, sender: str, message: dict) -> None:
        if message.get("type") == "resolve_sites":
            pending = self._pending.get(message["chain"])
            if pending is None:
                return
            edge = self.gs.edge_controllers[pending.spec.edge_service]
            reply = {
                "type": "sites_resolved",
                "chain": message["chain"],
                "ingress_site": edge.resolve_site(message["ingress"]),
                "egress_site": edge.resolve_site(message["egress"]),
            }
            self.sim.schedule(
                self.delays.controller_processing_s,
                self._edge_rpc.send,
                self.gs_host,
                reply,
            )
        elif message.get("type") == "configure_edge":
            pending = self._pending.get(message["chain"])
            if pending is None or pending.edge_configured:
                return
            pending.edge_configured = True
            installation = pending.timeline.installation
            edge = self.gs.edge_controllers[pending.spec.edge_service]
            self.gs._configure_edges(installation, edge)

    def _on_sites_resolved(self, message: dict) -> None:
        pending = self._pending.get(message["chain"])
        if pending is None or pending.timeline.sites_resolved_at is not None:
            return  # re-driven duplicate resolution
        pending.timeline.sites_resolved_at = self.sim.now
        self._finish_stage(pending, "install.resolve")
        self._start_stage(pending, "install.route_compute")
        pending.ingress_site = message["ingress_site"]
        pending.egress_site = message["egress_site"]

        # Arrow 2: route computation (charged compute time), then 2PC.
        def compute() -> None:
            if self._pending.get(pending.spec.name) is not pending:
                return  # aborted while the compute delay elapsed
            spec = pending.spec
            chain = Chain(
                spec.name,
                self.gs.model.endpoint_node(pending.ingress_site),
                self.gs.model.endpoint_node(pending.egress_site),
                spec.vnf_services,
                spec.forward_demand,
                spec.reverse_demand,
            )
            try:
                self.gs.model.add_chain(chain)
            except Exception as exc:
                self._fail(pending, str(exc))
                return
            self._recompute_route(pending)

        self.sim.schedule(self.delays.route_compute_s, compute)

    def _recompute_route(self, pending: "_PendingInstall") -> None:
        """Route (or re-route after a rejection) and start the 2PC."""
        if self._pending.get(pending.spec.name) is not pending:
            return  # aborted while the recompute delay elapsed
        spec = pending.spec
        try:
            routed = self.gs.router.route(spec.name)
            if routed <= _EPS:
                raise InstallationError(
                    f"no feasible route for chain {spec.name!r}"
                )
        except Exception as exc:
            self.gs.model.remove_chain(spec.name)
            self._fail(pending, str(exc))
            return
        self._finish_stage(pending, "install.route_compute")
        pending.loads = self.gs._chain_loads(spec.name)
        if not pending.loads:
            self._publish_route(pending)
            return
        actions = pending.machine.start(pending.loads)
        self._log_phase(pending, twopc.PREPARING)
        self._start_stage(pending, "2pc.prepare")
        self._perform(pending, actions)

    def _perform(self, pending: "_PendingInstall", actions) -> None:
        """Carry out the 2PC machine's actions: protocol messages leave
        over the reliable RPC layer (every prepare of an attempt at
        once), verdicts move the install along the Figure 4 flow."""
        name = pending.spec.name
        for kind, arg, attempt in actions:
            if kind == twopc.DECIDE:
                self._finish_stage(pending, "2pc.prepare")
                self._start_stage(pending, "2pc.commit")
            elif kind == twopc.INSTALLED:
                pending.timeline.route_committed_at = self.sim.now
                self._finish_stage(pending, "2pc.commit")
                self._publish_route(pending)
            elif kind == twopc.RETRY:
                # Reconcile the rejecting VNF's reported capacity, roll
                # the route back, and recompute -- the Section 3 step-2
                # retry, as in the synchronous path.
                self.gs.router.rollback(name)
                vnf_name, site = arg
                self.gs.router.sync_vnf_capacity(
                    vnf_name, site, self.gs.vnf_services[vnf_name].available(site)
                )
                self._start_stage(pending, "install.route_compute")
                self.sim.schedule(
                    self.delays.route_compute_s, self._recompute_route, pending
                )
            elif kind == twopc.REJECTED:
                self.gs.router.rollback(name)
                self.gs.model.remove_chain(name)
                self._fail(pending, f"2PC rejected by {arg}")
            else:
                # Aborts carry the rejected attempt (the receivers' fence
                # then drops its retransmits but admits the next
                # attempt's prepares) and are not worth an install abort
                # if they give up; prepares and commits are.
                keys = sorted(arg) if kind == twopc.ABORT else arg
                for vnf_name, site in keys:
                    message = {"type": kind, "chain": name, "vnf": vnf_name,
                               "site": site, "attempt": attempt}
                    if kind == twopc.PREPARE:
                        message["load"] = pending.loads[(vnf_name, site)]
                    self._gs_rpc.send(
                        self.vnf_hosts[vnf_name],
                        message,
                        None if kind == twopc.ABORT else self._rpc_gave_up,
                    )

    def _make_vnf_receiver(self, vnf_name: str):
        fence = self._fence

        def receive(sender: str, message: dict) -> None:
            kind = message.get("type")
            service = self.gs.vnf_services[vnf_name]
            chain, site = message.get("chain"), message.get("site")
            attempt = message.get("attempt", 0)
            key = (chain, vnf_name, site)

            def ack(**result) -> None:
                self.sim.schedule(
                    self.delays.controller_processing_s,
                    self._vnf_rpc[vnf_name].send,
                    self.gs_host,
                    {**message, "type": f"{kind}_ack", **result},
                )

            # A stale message (its attempt already aborted or torn down)
            # is dropped without an ack.
            if kind == "prepare":
                verdict = fence.prepare(key, attempt)
                if verdict == twopc.STALE:
                    return
                if verdict == twopc.SUPERSEDING:
                    # A newer attempt supersedes any reservation a prior
                    # one left behind (its abort may still be in flight
                    # -- and must now be ignored).
                    service.abort(chain, site)
                ack(ok=service.prepare(chain, site, message["load"]))
            elif kind == "commit":
                if not fence.admits(key, attempt):
                    return
                try:
                    service.commit(chain, site)
                except AllocationError:
                    # Commit raced a teardown fence; the coordinator's
                    # deadline/abort path owns the outcome.
                    return
                ack()
            elif kind == "abort":
                if fence.abort(key, attempt):
                    service.abort(chain, site)
            elif kind == "teardown":
                service.teardown(chain, site)
                fence.teardown(key, attempt)
            elif kind == "allocate":
                # Arrow 4: allocate instances and publish them on the bus.
                pending = self._pending.get(chain)
                if pending is None:
                    return

                def publish() -> None:
                    if self._pending.get(chain) is not pending:
                        return  # completed or aborted meanwhile
                    self._publish_instances(pending, vnf_name, site)

                self.sim.schedule(self.delays.instance_allocation_s, publish)

        return receive

    def _on_ack(self, message: dict) -> None:
        """A prepare or commit ack: an event for the install's machine."""
        pending = self._pending.get(message["chain"])
        if pending is None:
            return
        ok = message.get("ok", True)
        actions = pending.machine.reply(
            message["type"][: -len("_ack")],
            (message["vnf"], message["site"]),
            message.get("attempt", 0),
            ok,
        )
        if actions and not ok:
            self._finish_stage(pending, "2pc.prepare")
            if self.metrics is not None:
                self.metrics.counter(
                    "2pc.rejections", chain=pending.spec.name
                ).inc()
        self._perform(pending, actions)

    # -- arrows 3-5: bus publications and rule installation ------------------

    def _route_sites(self, pending: "_PendingInstall") -> set[str]:
        """Every site that must install rules for the chain's route."""
        chain = self.gs.model.chains[pending.spec.name]
        sites = {pending.ingress_site}
        for z in range(1, chain.num_stages):
            for (_src, dst), frac in self.gs.router.solution.stage_flows(
                pending.spec.name, z
            ).items():
                if frac > _EPS:
                    sites.add(dst)
        return sites

    def _publish_route(self, pending: "_PendingInstall") -> None:
        spec = pending.spec
        label = self.gs.labels.allocate(spec.name)
        installation = ChainInstallation(
            spec, label, pending.ingress_site, pending.egress_site,
            self.gs.router.solution.routed_fraction(spec.name),
            pending.loads,
        )
        self.gs.installations[spec.name] = installation
        pending.timeline.installation = installation
        pending.timeline.route_published_at = self.sim.now
        # Durable: the chain is committed; a standby controller must
        # either finish configuring it or tear it down exactly.
        self._checkpoint(installation)
        self._log_phase(pending, twopc.COMMITTING)
        self._start_stage(pending, "install.configure")
        # The edge controller configures classifiers (arrow 4, edge side).
        self._gs_rpc.send(
            self.edge_host,
            {"type": "configure_edge", "chain": spec.name},
            self._rpc_gave_up,
        )
        # Instance allocation requests to VNF controllers on the route.
        involved: set[tuple[str, str]] = set(pending.loads)
        if not involved:
            self._configure_sites(pending)
            return
        for vnf_name, site in involved:
            self._gs_rpc.send(
                self.vnf_hosts[vnf_name],
                {"type": "allocate", "chain": spec.name, "site": site},
                self._rpc_gave_up,
            )
        # Local Switchboards subscribe for the instance announcements
        # (the Section 6 topic layout: filters land at publisher sites).
        for vnf_name, vnf_site in involved:
            topic = Topic(
                chain=f"c{installation.label}",
                egress=pending.egress_site,
                vnf=vnf_name,
                site=vnf_site,
                kind="instances",
            )
            pending.involved_topics[str(topic)] = topic
        pending.route_sites = self._route_sites(pending)
        for site in pending.route_sites:
            client = self.local_clients[site]
            pending.subscribers.append(client)
            callback = self._make_local_callback(pending, site)
            for topic in pending.involved_topics.values():
                self.bus.subscribe(client, topic, callback)

    def _publish_instances(
        self, pending: "_PendingInstall", vnf_name: str, site: str
    ) -> None:
        installation = pending.timeline.installation
        self.gs._assign_instances(installation)
        service = self.gs.vnf_services[vnf_name]
        topic = Topic(
            chain=f"c{installation.label}",
            egress=pending.egress_site,
            vnf=vnf_name,
            site=site,
            kind="instances",
        )
        # The VNF controller's local proxy fans this out to exactly the
        # subscribed sites.
        self.bus.publish(
            "gsb.pub" if site not in self.bus.sites else self._bus_client(site),
            topic,
            {
                "instances": [
                    inst.name for inst in service.instances_at(site)
                ]
            },
        )

    def _bus_client(self, site: str) -> str:
        return self.local_clients.get(site, "gsb.pub")

    def _make_local_callback(self, pending: "_PendingInstall", site: str):
        def on_instances(topic: str, _payload) -> None:
            if self._pending.get(pending.spec.name) is not pending:
                return  # aborted install: ignore straggler publications
            if site in pending.timeline.site_configured_at:
                return
            seen = pending.seen_instance_info.setdefault(site, set())
            seen.add(topic)
            # Compile rules only once every involved VNF's instances are
            # known (next-hop weights need the downstream assignments).
            if seen < pending.involved_topics.keys():
                return

            def configure() -> None:
                if self._pending.get(pending.spec.name) is not pending:
                    return
                if site in pending.timeline.site_configured_at:
                    return  # a re-driven duplicate publication
                installation = pending.timeline.installation
                self.gs._install_rules(installation, only_site=site)
                pending.timeline.site_configured_at[site] = self.sim.now
                if pending.route_sites <= pending.timeline.site_configured_at.keys():
                    pending.timeline.completed_at = self.sim.now
                    self._complete(pending)

            self.sim.schedule(
                self.delays.rule_compute_s + self.delays.dataplane_config_s,
                configure,
            )

        return on_instances

    def _configure_sites(self, pending: "_PendingInstall") -> None:
        """VNF-less chain: configure the ingress site directly."""
        installation = pending.timeline.installation

        def configure() -> None:
            if self._pending.get(pending.spec.name) is not pending:
                return
            self.gs._install_rules(installation)
            now = self.sim.now
            pending.timeline.site_configured_at[pending.ingress_site] = now
            pending.timeline.completed_at = now
            self._complete(pending)

        self.sim.schedule(
            self.delays.rule_compute_s + self.delays.dataplane_config_s,
            configure,
        )

    def _retire(self, pending: "_PendingInstall") -> None:
        """The common end of an install, completed or failed: release
        the pending entry, disarm its timers, close its spans, clear its
        install record -- and drop its bus subscriptions, so a straggler
        publication finds no callback (labels may be reused after an
        abort) and neither the bus's filter tables nor the callbacks'
        closures keep a finished install alive."""
        name = pending.spec.name
        if self._pending.get(name) is pending:
            del self._pending[name]
        self.deadlines.disarm(name)
        self._cancel_redrive(pending)
        for client in pending.subscribers:
            for topic in pending.involved_topics.values():
                self.bus.unsubscribe(client, topic)
        self._finish_open_stages(pending)
        self._durably(self.log.clear, name)

    def _complete(self, pending: "_PendingInstall") -> None:
        """Success path: retire the install and notify the caller --
        symmetric with :meth:`_fail`."""
        self._retire(pending)
        if self.metrics is not None:
            self.metrics.counter("install.completed").inc()
        if pending.on_complete is not None:
            pending.on_complete(pending.timeline)

    def _fail(self, pending: "_PendingInstall", reason: str) -> None:
        pending.timeline.failed = reason
        self._retire(pending)
        if self.metrics is not None:
            self.metrics.counter("install.failed").inc()
        if pending.on_complete is not None:
            pending.on_complete(pending.timeline)


@dataclass
class _PendingInstall:
    spec: ChainSpecification
    timeline: InstallationTimeline
    on_complete: Callable[[InstallationTimeline], None] | None
    ingress_site: str = ""
    egress_site: str = ""
    #: The 2PC state machine: attempts are numbered per install, and
    #: every prepare of an attempt is in flight at once.
    machine: twopc.Install = field(
        default_factory=lambda: twopc.Install(
            GlobalSwitchboard.MAX_COMMIT_ATTEMPTS, fan_out=True
        )
    )
    loads: dict[tuple[str, str], float] = field(default_factory=dict)
    #: raw topic -> parsed topic of every instance announcement awaited,
    #: and the bus clients subscribed to them (released at retirement).
    involved_topics: dict[str, Topic] = field(default_factory=dict)
    subscribers: list[str] = field(default_factory=list)
    #: the sites that must configure, fixed when the route is published.
    route_sites: set[str] = field(default_factory=set)
    #: site -> topics whose instance info has arrived there.
    seen_instance_info: dict[str, set[str]] = field(default_factory=dict)
    #: stage name -> open tracing span (populated only when the
    #: installer was built with a metrics registry).
    spans: "dict[str, Span]" = field(default_factory=dict)
    #: True once the edge resolution RPC for this install was issued.
    sites_requested: bool = False
    #: True once the edge controller applied configure_edge.
    edge_configured: bool = False
    #: Handle of the next re-drive tick (cancelled on completion).
    redrive: "EventHandle | None" = None
