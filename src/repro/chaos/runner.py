"""The chaos soak runner.

Builds a full Switchboard deployment (controller + VNF services + edge
+ proxy bus on one simulated network + a replicated controller store),
installs a seeded chain population, drives a seeded pub/sub workload,
and plays a :class:`repro.chaos.scenario.Scenario` against it while
:class:`repro.chaos.invariants.InvariantChecker` probes continuously.

One integer seed determines everything: the chain workload, the publish
schedule, the fault schedule, and the loss sampling all derive their
RNGs from it, so a failing run reproduces exactly from
``python -m repro chaos --seed N``.

The result is a :class:`SoakReport`: invariant violations (the run
passes only with zero), carried traffic before/after, per-failure
recovery ratios, bus delivery counters, drop reasons, and leader-lease
activity.  ``to_json()`` is deterministic -- it contains only
simulation-derived values, never wall-clock timings (those go to the
metrics registry as ``chaos.recovery_s``).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.bus.bus import GlobalMessageBus, make_bus, proxy_name
from repro.bus.topics import Topic
from repro.chaos.invariants import (
    InvariantChecker,
    LeaseMonitor,
    Violation,
    bus_delivery,
    capacity_safety,
    lease_safety,
    link_conservation,
    network_quiescence,
    no_orphaned_reservations,
    two_phase_atomicity,
)
from repro.chaos.scenario import (
    FaultEvent,
    Scenario,
    ScenarioConfig,
    generate_scenario,
)
from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    InstallationError,
    LocalSwitchboard,
)
from repro.controller.failures import (
    FailureReport,
    fail_site,
    restore_site,
)
from repro.controller.protocol import BusDrivenInstaller, InstallationTimeline
from repro.controller.replication import ReplicatedStore
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.obs import MetricsRegistry, collect_bus, collect_network
from repro.resilience import (
    FailoverManager,
    ReconciliationSweeper,
    ResilienceConfig,
)
from repro.resilience.failover import LeaseElection
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.vnf import VnfService


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run.  Everything random derives from ``seed``."""

    seed: int = 1
    duration_s: float = 60.0
    num_chains: int = 8
    chain_demand: float = 3.0
    publish_rate_hz: float = 4.0
    probe_interval_s: float = 1.0
    lease_duration_s: float = 4.0
    lease_renew_s: float = 1.5
    partition: bool = False
    #: Control-plane fault mode: live bus-driven installs run mid-soak
    #: while control links lose messages and the active Global
    #: Switchboard crashes once; the resilience stack (reliable RPC,
    #: deadlines, sweeper, standby failover) must keep every invariant.
    control_faults: bool = False
    control_loss: float = 0.2
    num_live_installs: int = 6
    install_deadline_s: float = 8.0
    scenario: ScenarioConfig | None = None

    def scenario_config(self) -> ScenarioConfig:
        if self.scenario is not None:
            return self.scenario
        if self.control_faults:
            # Focus the schedule on the control plane: loss windows on
            # every cross-site control link plus one mid-run GS crash.
            # The synchronous site-outage reroute path stays off -- it
            # mutates routes underneath in-flight bus-driven installs,
            # which is a different (operator-serialized) regime.
            return ScenarioConfig(
                duration_s=self.duration_s,
                link_flaps=2,
                site_outage=False,
                leader_kill=False,
                partition=self.partition,
                control_loss_windows=2,
                control_loss_probability=self.control_loss,
                gs_crash=True,
            )
        return ScenarioConfig(
            duration_s=self.duration_s, partition=self.partition
        )


#: Sites of the soak deployment ("a" is the hub node, so site-A outages
#: force latency detours, as in the failure-recovery bench).
SITES = ("A", "B", "C", "D")
_NODE_LATENCY = {
    ("a", "b"): 8.0, ("a", "c"): 8.0, ("a", "d"): 8.0,
    ("b", "c"): 16.0, ("b", "d"): 16.0, ("c", "d"): 16.0,
}
#: Leader candidates for the controller lease (primary + standby).
CANDIDATES = ("gs-primary", "gs-standby")


@dataclass
class Deployment:
    """Everything the engine and the probes need a handle on."""

    sim: Simulator
    net: SimNetwork
    bus: GlobalMessageBus
    gs: GlobalSwitchboard
    store: ReplicatedStore
    monitor: LeaseMonitor
    registry: MetricsRegistry
    sites: tuple[str, ...] = SITES
    #: Populated in control-fault mode only.
    installer: BusDrivenInstaller | None = None
    failover: FailoverManager | None = None
    sweeper: ReconciliationSweeper | None = None
    live_timelines: list[InstallationTimeline] = field(default_factory=list)


def build_deployment(config: SoakConfig) -> Deployment:
    """One seeded Switchboard deployment with an installed chain
    population (the workload side of the soak)."""
    sim = Simulator()
    registry = MetricsRegistry.for_simulator(sim)
    net = SimNetwork(sim, metrics=registry)
    net.set_fault_rng(random.Random(f"loss-{config.seed}"))
    bus = make_bus(
        list(SITES),
        wan_delay_s=0.020,
        uplink_bps=50e6,
        uplink_buffer_bytes=128_000,
        network=net,
        metrics=registry,
    )

    # Capacity: every VNF at every site, sized so three surviving sites
    # can carry the whole population (a single-site outage is fully
    # recoverable; concurrent link faults may still degrade).
    total_load = config.num_chains * 2.5 * config.chain_demand
    per_site = total_load * 1.6 / (len(SITES) - 1)
    capacity = {site: per_site for site in SITES}
    vnfs = [VNF("fw", 1.0, dict(capacity)), VNF("nat", 1.0, dict(capacity))]
    model = NetworkModel(
        ["a", "b", "c", "d"],
        dict(_NODE_LATENCY),
        [CloudSite(s, s.lower(), 10 * per_site) for s in SITES],
        vnfs,
    )
    dp = DataPlane(random.Random(0), metrics=registry)
    gs = GlobalSwitchboard(model, dp, metrics=registry)
    for site in SITES:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    for vnf in vnfs:
        gs.register_vnf_service(
            VnfService(vnf.name, vnf.load_per_unit, dict(vnf.site_capacity))
        )
    edge = EdgeController("vpn")
    for site in SITES:
        edge.register_instance(EdgeInstance(f"edge.{site}", site, dp))
        edge.register_attachment(f"att-{site}", site)
    gs.register_edge_service(edge)

    rng = random.Random(f"workload-{config.seed}")
    for i in range(config.num_chains):
        ingress, egress = rng.sample(list(SITES), 2)
        chain_vnfs = ["fw"] if rng.random() < 0.5 else ["fw", "nat"]
        gs.create_chain(
            ChainSpecification(
                f"chain{i}", "vpn", f"att-{ingress}", f"att-{egress}",
                chain_vnfs,
                forward_demand=config.chain_demand,
                reverse_demand=config.chain_demand * 0.25,
                dst_prefixes=[f"20.0.{i}.0/24"],
            )
        )

    store = ReplicatedStore([f"ctl.{s}" for s in SITES])
    deployment = Deployment(
        sim, net, bus, gs, store, LeaseMonitor(store), registry
    )
    if config.control_faults:
        deployment.installer = BusDrivenInstaller(
            gs,
            bus,
            gs_site="A",
            edge_controller_site="A",
            vnf_controller_sites={"fw": "B", "nat": "C"},
            metrics=registry,
            resilience=ResilienceConfig(
                install_deadline_s=config.install_deadline_s,
                seed=config.seed,
            ),
            store=store,
        )
    return deployment


class _LeaseOnly(LeaseElection):
    """The election loop with no controller behind it (soaks without
    control faults): a candidate is up unless killed, and taking over
    is just holding the lease."""

    def _active_up(self) -> bool:
        return True

    def take_over(self, candidate: str) -> None:
        self.active_name = candidate


class ChaosEngine:
    """Maps :class:`FaultEvent`\\ s onto the deployment's fault
    primitives and recovery entry points, and holds the lease-only
    election loop."""

    def __init__(self, deployment: Deployment, config: SoakConfig):
        self.d = deployment
        self.config = config
        self.applied: list[tuple[float, str]] = []
        self.reports: list[FailureReport] = []
        #: site -> (site capacity, per-VNF capacity) stashed at failure.
        self._site_stash: dict[str, tuple[float, dict[str, float]]] = {}
        self._site_reports: dict[str, FailureReport] = {}
        #: Started by :func:`run_soak` unless a FailoverManager owns the
        #: lease (control-fault mode); ``kill_leader`` acts on it.
        self.election = _LeaseOnly(
            deployment.sim, deployment.store, CANDIDATES, deployment.monitor,
            config.lease_duration_s, config.lease_renew_s,
        )
        self.leaders_killed = 0
        self.gs_crashes = 0
        self._recovery_hist = deployment.registry.histogram(
            "chaos.recovery_s"
        )

    # -- scheduling -----------------------------------------------------

    def schedule(self, scenario: Scenario) -> None:
        for event in scenario.events:
            self.d.sim.schedule_at(event.at, self._apply, event)

    # -- event application ----------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_on_{event.kind}")
        started = time.perf_counter()
        handler(event)
        if event.kind in ("fail_site", "restore_site", "kill_leader"):
            # Recovery work runs synchronously inside the event; its
            # wall-clock cost is the honest "recovery latency" here.
            self._recovery_hist.observe(time.perf_counter() - started)
        self.applied.append((round(self.d.sim.now, 9), event.kind))

    def _on_link_down(self, event: FaultEvent) -> None:
        self.d.net.fail_link(*event.target)

    def _on_link_up(self, event: FaultEvent) -> None:
        self.d.net.restore_link(*event.target)

    def _on_link_loss(self, event: FaultEvent) -> None:
        self.d.net.set_link_loss(*event.target, event.value)

    def _on_link_degrade(self, event: FaultEvent) -> None:
        self.d.net.set_link_degradation(*event.target, event.value)

    def _on_partition(self, event: FaultEvent) -> None:
        groups = []
        for site_group in event.target:
            members = set(site_group)
            groups.append(
                [h.name for h in self.d.net.hosts if h.site in members]
            )
        self.d.net.partition(groups)

    def _on_heal_partition(self, event: FaultEvent) -> None:
        self.d.net.heal_partition()

    def _on_crash_host(self, event: FaultEvent) -> None:
        self.d.net.crash_host(event.target[0])

    def _on_restart_host(self, event: FaultEvent) -> None:
        self.d.net.restart_host(event.target[0])

    def _on_fail_site(self, event: FaultEvent) -> None:
        site = event.target[0]
        gs = self.d.gs
        if site not in self._site_stash:
            self._site_stash[site] = (
                gs.model.sites[site].capacity,
                {
                    name: vnf.site_capacity[site]
                    for name, vnf in gs.model.vnfs.items()
                    if site in vnf.site_capacity
                },
            )
        report = fail_site(gs, site)
        self.reports.append(report)
        self._site_reports[site] = report

    def _on_restore_site(self, event: FaultEvent) -> None:
        site = event.target[0]
        stash = self._site_stash.pop(site, None)
        if stash is None:
            return  # restore without a preceding failure: nothing to do
        restore_site(self.d.gs, site, stash[0], stash[1])
        # Re-extend the chains the outage degraded onto the restored
        # capacity (the operator action restore_site documents).
        report = self._site_reports.pop(site, None)
        if report is not None:
            for name in report.affected_chains:
                if name in self.d.gs.installations:
                    try:
                        self.d.gs.extend_chain(name)
                    except InstallationError:
                        pass  # the extension did not install: stays degraded

    def _on_control_loss(self, event: FaultEvent) -> None:
        """Probabilistic loss on every cross-site control link at once
        (value 0.0 heals).  The data-plane WAN is untouched: this is a
        control-plane-only degradation."""
        installer = self.d.installer
        if installer is None:
            return
        for a, b in installer.control_pairs:
            self.d.net.set_link_loss(a, b, event.value)

    def _on_gs_crash(self, event: FaultEvent) -> None:
        """Crash the active Global Switchboard process mid-run: its host
        goes down (no scheduled restart -- only a standby takeover via
        the failover manager brings the role back) and its candidate
        stops renewing the lease."""
        installer = self.d.installer
        if installer is None:
            return
        self.gs_crashes += 1
        self.d.net.crash_host(installer.gs_host)
        failover = self.d.failover
        if failover is not None:
            failover.mark_dead(failover.active)

    def _on_kill_leader(self, event: FaultEvent) -> None:
        leader = self.d.monitor.leader(self.d.sim.now)
        if leader is None:
            return
        self.election.mark_dead(leader)
        self.leaders_killed += 1
        # The killed process comes back (as a standby) well after its
        # old lease expired and the survivor took over.
        self.d.sim.schedule(
            3 * self.config.lease_duration_s, self.election.revive, leader
        )


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def _start_workload(d: Deployment, config: SoakConfig) -> None:
    """Seeded pub/sub load: one publisher per site, one monitor client
    per site subscribed to every other site's topic."""
    topics = {
        site: Topic("soak", "all", "wl", site, "instances")
        for site in d.sites
    }
    for site in d.sites:
        d.bus.attach(f"app.{site}", site)
        d.bus.attach(f"mon.{site}", site)
    for site in d.sites:
        for other in d.sites:
            if other != site:
                d.bus.subscribe(f"mon.{site}", topics[other])

    rng = random.Random(f"publish-{config.seed}")
    count = int(config.duration_s * config.publish_rate_hz)
    for site in d.sites:
        for k in range(count):
            at = (k + rng.random()) / config.publish_rate_hz
            if at < config.duration_s:
                d.sim.schedule_at(
                    at, d.bus.publish, f"app.{site}", topics[site],
                    {"seq": k},
                )


def _start_install_workload(d: Deployment, config: SoakConfig) -> None:
    """Seeded bus-driven installs submitted mid-soak, so control faults
    (loss windows, the GS crash) land on live 2PC rounds.  Start times
    sit in [0.15, 0.5] x duration: after the run warms up, early enough
    that every deadline resolves before the horizon."""
    installer = d.installer
    assert installer is not None
    rng = random.Random(f"installs-{config.seed}")
    lo, hi = 0.15 * config.duration_s, 0.5 * config.duration_s
    for i in range(config.num_live_installs):
        ingress, egress = rng.sample(list(d.sites), 2)
        chain_vnfs = ["fw"] if rng.random() < 0.5 else ["fw", "nat"]
        spec = ChainSpecification(
            f"live{i}", "vpn", f"att-{ingress}", f"att-{egress}",
            chain_vnfs,
            forward_demand=config.chain_demand * 0.5,
            reverse_demand=config.chain_demand * 0.125,
            dst_prefixes=[f"21.0.{i}.0/24"],
        )
        d.sim.schedule_at(
            rng.uniform(lo, hi),
            installer.install, spec, d.live_timelines.append,
        )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class SoakReport:
    """Outcome of one soak; ``passed`` iff no invariant was violated."""

    seed: int
    duration_s: float
    scenario_digest: str
    chains: int
    event_counts: dict[str, int]
    events_applied: list[tuple[float, str]]
    violations: list[Violation]
    carried_before: float
    carried_after: float
    recovery: list[dict] = field(default_factory=list)
    bus_published: int = 0
    bus_delivered: int = 0
    bus_wan_drops: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    lease_grants: int = 0
    leader_transitions: int = 0
    leaders_killed: int = 0
    probes_run: int = 0
    # Control-fault mode (zero/absent activity otherwise).
    installs_submitted: int = 0
    installs_completed: int = 0
    installs_failed: int = 0
    deadline_aborts: int = 0
    rpc_sent: int = 0
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    rpc_duplicates: int = 0
    gs_crashes: int = 0
    failover_takeovers: int = 0
    stale_reservations_swept: int = 0
    # Workload-schedule mode (empty/absent activity otherwise).
    workload_digest: str = ""
    workload_counts: dict[str, int] = field(default_factory=dict)
    workload_ops_applied: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        """Deterministic document: simulation-derived values only."""
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "scenario_digest": self.scenario_digest,
            "chains": self.chains,
            "event_counts": self.event_counts,
            "events_applied": [
                {"at": at, "kind": kind} for at, kind in self.events_applied
            ],
            "violations": [
                {"at": round(v.at, 9), "invariant": v.invariant,
                 "detail": v.detail}
                for v in self.violations
            ],
            "carried_before": round(self.carried_before, 6),
            "carried_after": round(self.carried_after, 6),
            "recovery": self.recovery,
            "bus": {
                "published": self.bus_published,
                "delivered": self.bus_delivered,
                "wan_drops": self.bus_wan_drops,
            },
            "drop_reasons": self.drop_reasons,
            "lease": {
                "grants": self.lease_grants,
                "transitions": self.leader_transitions,
                "killed": self.leaders_killed,
            },
            "probes_run": self.probes_run,
            "control": {
                "installs_submitted": self.installs_submitted,
                "installs_completed": self.installs_completed,
                "installs_failed": self.installs_failed,
                "deadline_aborts": self.deadline_aborts,
                "rpc_sent": self.rpc_sent,
                "rpc_retries": self.rpc_retries,
                "rpc_timeouts": self.rpc_timeouts,
                "rpc_duplicates": self.rpc_duplicates,
                "gs_crashes": self.gs_crashes,
                "failover_takeovers": self.failover_takeovers,
                "stale_reservations_swept": self.stale_reservations_swept,
            },
            "workload": {
                "digest": self.workload_digest,
                "counts": self.workload_counts,
                "ops_applied": self.workload_ops_applied,
            },
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), separators=(",", ":"),
                          sort_keys=True)

    def render(self) -> str:
        lines = [
            f"chaos soak: seed={self.seed} duration={self.duration_s:g}s "
            f"chains={self.chains}",
            f"schedule digest: {self.scenario_digest[:16]}... "
            f"({sum(self.event_counts.values())} events)",
            "events: " + ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.event_counts.items())
            ),
            f"carried fraction: {self.carried_before:.3f} before -> "
            f"{self.carried_after:.3f} after",
        ]
        for entry in self.recovery:
            lines.append(
                f"  {entry['kind']} {entry['target']}: "
                f"{entry['affected']} chain(s) affected, "
                f"{entry['ratio']:.0%} of affected traffic restored"
            )
        lines.append(
            f"bus: {self.bus_published} published, "
            f"{self.bus_delivered} delivered, "
            f"{self.bus_wan_drops} WAN drops"
        )
        if self.drop_reasons:
            lines.append(
                "drops by reason: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.drop_reasons.items())
                )
            )
        lines.append(
            f"leases: {self.lease_grants} grant(s), "
            f"{self.leader_transitions} leader transition(s), "
            f"{self.leaders_killed} kill(s)"
        )
        if self.installs_submitted:
            lines.append(
                f"control plane: {self.installs_submitted} live "
                f"install(s) -> {self.installs_completed} completed, "
                f"{self.installs_failed} aborted "
                f"({self.deadline_aborts} by deadline); "
                f"rpc {self.rpc_sent} sent / {self.rpc_retries} retries / "
                f"{self.rpc_timeouts} timeouts / "
                f"{self.rpc_duplicates} dups suppressed; "
                f"{self.gs_crashes} GS crash(es), "
                f"{self.failover_takeovers} takeover(s), "
                f"{self.stale_reservations_swept} stale reservation(s) swept"
            )
        if self.workload_digest:
            lines.append(
                f"workload: digest {self.workload_digest[:16]}..., "
                f"{self.workload_ops_applied} op(s) applied, " + ", ".join(
                    f"{k}={v}" for k, v in sorted(
                        self.workload_counts.items()
                    ) if v
                )
            )
        lines.append(f"invariant probes run: {self.probes_run}")
        if self.passed:
            lines.append("PASS: zero invariant violations")
        else:
            lines.append(f"FAIL: {len(self.violations)} violation(s)")
            for violation in self.violations[:20]:
                lines.append(f"  {violation}")
        return "\n".join(lines)


def _mean_carried(gs: GlobalSwitchboard) -> float:
    fractions = [
        inst.routed_fraction for inst in gs.installations.values()
    ]
    return sum(fractions) / len(fractions) if fractions else 0.0


def run_soak(
    config: SoakConfig | None = None,
    scenario: Scenario | None = None,
    extra_probes: "dict[str, Callable[[], Iterable[str]]] | None" = None,
    workload=None,
    workload_probes=None,
) -> SoakReport:
    """Run one seeded chaos soak end to end.

    Passing an explicit ``scenario`` replays that exact schedule (e.g.
    one parsed from a previously saved report); otherwise the schedule
    is generated from ``config.seed``.

    ``extra_probes`` registers additional invariant probes (name ->
    zero-argument callable returning problem strings) on the same
    checker cadence -- e.g. the
    :func:`repro.federation.invariants.federation_probes` registry when
    a federated coordinator is deployed alongside, so subsystem soaks
    do not grow private probe loops.

    ``workload`` plays a :class:`repro.scenarios.WorkloadSchedule` of
    chain creates/removes/demand changes against the deployment on the
    same simulated clock, composing with the fault schedule -- this is
    the scenario-fuzzer entry point.  ``workload_probes`` (a callable
    taking the live :class:`repro.scenarios.apply.WorkloadEngine` and
    returning a probe dict) registers workload-aware invariants; the
    fuzz self-tests use it to plant a provably-detectable violation.
    """
    config = config or SoakConfig()
    d = build_deployment(config)
    carried_before = _mean_carried(d.gs)

    workload_engine = None
    if workload is not None:
        # Local import: repro.scenarios builds on repro.chaos, so the
        # runner may only reach back at call time.
        from repro.scenarios.apply import WorkloadEngine

        workload_engine = WorkloadEngine(d)
        workload_engine.schedule(workload)

    if scenario is None:
        wan_pairs = []
        for a in d.sites:
            for b in d.sites:
                if a != b:
                    wan_pairs.append((f"wan.{a}", proxy_name(b)))
        scenario = generate_scenario(
            config.seed, d.sites, wan_pairs, config.scenario_config()
        )

    engine = ChaosEngine(d, config)
    engine.schedule(scenario)
    if config.control_faults and d.installer is not None:
        # The failover manager owns the lease in control-fault mode
        # (renewal while the active GS lives, takeover when it dies).
        d.failover = FailoverManager(
            d.installer,
            d.store,
            monitor=d.monitor,
            candidates=CANDIDATES,
            lease_duration_s=config.lease_duration_s,
            check_interval_s=config.lease_renew_s,
            metrics=d.registry,
        )
        d.failover.start(config.duration_s)
        d.sweeper = ReconciliationSweeper(d.installer, metrics=d.registry)
        d.sweeper.start(config.duration_s)
        _start_install_workload(d, config)
    else:
        engine.election.start(config.duration_s)
    _start_workload(d, config)

    checker = InvariantChecker(d.sim, interval_s=config.probe_interval_s)
    checker.add("link_conservation", link_conservation(d.net))
    checker.add("two_phase_atomicity", two_phase_atomicity(d.gs, d.installer))
    checker.add("capacity_safety", capacity_safety(d.gs, d.installer))
    checker.add(
        "no_orphaned_reservations",
        no_orphaned_reservations(d.gs, d.installer),
    )
    checker.add("bus_delivery", bus_delivery(d.bus))
    checker.add("lease_safety", lease_safety(d.monitor))
    if extra_probes:
        for name, probe in extra_probes.items():
            checker.add(name, probe)
    if workload_probes is not None and workload_engine is not None:
        for name, probe in workload_probes(workload_engine).items():
            checker.add(name, probe)
    checker.start(config.duration_s)

    d.net.run(until=config.duration_s)
    d.net.run()  # drain in-flight deliveries and late heal events
    checker.check_now()
    # With the queue drained, nothing may remain in flight.
    quiescence = network_quiescence(d.net)
    for detail in quiescence():
        checker.violations.append(
            Violation(d.sim.now, "network_quiescence", detail)
        )

    collect_network(d.registry, d.net)
    collect_bus(d.registry, d.bus)
    if d.installer is not None:
        from repro.obs import collect_resilience

        collect_resilience(
            d.registry, d.installer, failover=d.failover, sweeper=d.sweeper
        )

    # Leader transitions: owner changes across the recorded grants.
    owners = [g.owner for g in d.monitor.grants]
    leader_transitions = sum(
        1 for i in range(1, len(owners)) if owners[i] != owners[i - 1]
    )

    installer = d.installer
    completed = sum(
        1 for t in d.live_timelines if t.completed_at is not None
    )
    return SoakReport(
        seed=config.seed,
        duration_s=config.duration_s,
        scenario_digest=scenario.digest(),
        chains=config.num_chains,
        event_counts=scenario.counts(),
        events_applied=engine.applied,
        violations=list(checker.violations),
        carried_before=carried_before,
        carried_after=_mean_carried(d.gs),
        recovery=[
            {
                "kind": report.kind,
                "target": report.site,
                "affected": len(report.affected_chains),
                "ratio": round(report.recovery_ratio(), 6),
            }
            for report in engine.reports
        ],
        bus_published=d.bus.stats.published,
        bus_delivered=d.bus.stats.delivered,
        bus_wan_drops=d.bus.stats.wan_drops,
        drop_reasons=dict(sorted(d.net.drop_reasons.items())),
        lease_grants=len(d.monitor.grants),
        leader_transitions=leader_transitions,
        leaders_killed=engine.leaders_killed,
        probes_run=checker.probes_run,
        installs_submitted=len(d.live_timelines),
        installs_completed=completed,
        installs_failed=len(d.live_timelines) - completed,
        deadline_aborts=installer.deadline_aborts if installer else 0,
        rpc_sent=installer.rpc.sent if installer else 0,
        rpc_retries=installer.rpc.retries if installer else 0,
        rpc_timeouts=installer.rpc.timeouts if installer else 0,
        rpc_duplicates=(
            installer.rpc.duplicates_suppressed if installer else 0
        ),
        gs_crashes=engine.gs_crashes,
        failover_takeovers=d.failover.takeovers if d.failover else 0,
        stale_reservations_swept=(
            d.sweeper.stale_reservations_released if d.sweeper else 0
        ),
        workload_digest=workload.digest() if workload is not None else "",
        workload_counts=(
            dict(workload_engine.counts) if workload_engine else {}
        ),
        workload_ops_applied=(
            len(workload_engine.applied) if workload_engine else 0
        ),
    )
