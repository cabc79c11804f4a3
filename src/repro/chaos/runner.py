"""The chaos soak harness, and the monolithic soak on it.

Both soaks (this one and :mod:`repro.federation.chaos`) share the
harness: a :class:`FaultEngine` plays a seeded
:class:`repro.chaos.scenario.Scenario` on the simulated network;
:func:`probe_run` probes on the
:class:`repro.chaos.invariants.InvariantChecker` cadence through the run
and the drain, and :func:`record_final` adds the settle-time probes; a
:class:`SoakDoc` report is stored in the shape of its document.

:func:`run_soak` deploys a controller, VNF services, edge and proxy bus
on one simulated network with a replicated controller store, installs a
seeded chain population and drives a seeded pub/sub workload.  One
integer seed determines everything (chains, publishes, faults, loss
sampling), so a failing run reproduces from ``python -m repro chaos
--seed N``.  Its :class:`SoakReport` holds the violations (a run passes
only with none), carried traffic before/after, per-failure recovery
ratios, bus and drop counters and lease activity; ``to_json()`` holds
simulation-derived values only, never wall-clock timings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Iterable

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
    GS_CRASH_WINDOW, FaultEvent, Scenario, ScenarioConfig, ScenarioError,
    check_duration, check_failover_fits, generate_scenario,
)
from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    InstallationError,
    LocalSwitchboard,
)
from repro.controller.failures import FailureReport, fail_site, restore_site
from repro.controller.protocol import BusDrivenInstaller, InstallationTimeline
from repro.controller.replication import ReplicatedStore
from repro.core import canonical
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.resilience import FailoverManager, ReconciliationSweeper, ResilienceConfig
from repro.resilience.failover import LeaseElection
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.vnf import VnfService

#: Named invariant probes: each returns its problem strings.
Probes = dict[str, Callable[[], Iterable[str]]]


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


class FaultEngine:
    """Plays a :class:`Scenario` on ``deployment`` (anything with a
    ``sim`` and a ``net``): each event, at its time, goes to the handler
    :attr:`HANDLERS` maps its kind to and is logged in :attr:`applied`.
    :meth:`schedule` refuses a kind the table lacks before anything is
    scheduled.  The network handlers are here; a soak's engine extends
    the table with the kinds its deployment knows, and maps a kind to
    its own handler where a heal or restart has recovery work."""

    def __init__(self, deployment) -> None:
        self.d = deployment
        #: ``{"at", "kind"}`` per event, in the order applied.
        self.applied: list[dict] = []

    def schedule(self, scenario: Scenario) -> None:
        unhandled = {event.kind for event in scenario.events} - self.HANDLERS.keys()
        if unhandled:
            raise ScenarioError(
                f"{type(self).__name__} has no handler for {sorted(unhandled)}"
            )
        for event in scenario.events:
            self.d.sim.schedule_at(event.at, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        self.HANDLERS[event.kind](self, event)
        self.applied.append({"at": round(self.d.sim.now, 9), "kind": event.kind})

    def _on_link_down(self, event: FaultEvent) -> None:
        self.d.net.fail_link(*event.target)

    def _on_link_up(self, event: FaultEvent) -> None:
        self.d.net.restore_link(*event.target)

    def _on_heal_partition(self, event: FaultEvent) -> None:
        self.d.net.heal_partition()

    def _on_crash_host(self, event: FaultEvent) -> None:
        self.d.net.crash_host(event.target[0])

    def _on_restart_host(self, event: FaultEvent) -> None:
        self.d.net.restart_host(event.target[0])

    #: ``kind -> handler`` for every kind this engine plays.
    HANDLERS: ClassVar[dict[str, Callable]] = {
        "link_down": _on_link_down,
        "link_up": _on_link_up,
        "heal_partition": _on_heal_partition,
        "crash_host": _on_crash_host,
        "restart_host": _on_restart_host,
    }


#: Simulated seconds between two rounds of invariant probes.
PROBE_INTERVAL_S = 1.0


def probe_run(deployment, config, *probe_sets: Probes) -> InvariantChecker:
    """Every probe of ``probe_sets`` on one checker (a name registered
    twice raises), probing every :data:`PROBE_INTERVAL_S` while the
    clock runs to ``config.duration_s``; then the queue is drained."""
    checker = InvariantChecker(deployment.sim, interval_s=PROBE_INTERVAL_S)
    for probes in probe_sets:
        for name, probe in probes.items():
            checker.add(name, probe)
    checker.start(config.duration_s)
    deployment.net.run(until=config.duration_s)
    deployment.net.run()  # drain in-flight deliveries, retries, deadlines
    return checker


def record_final(
    checker: InvariantChecker, net: SimNetwork, final: Probes | None = None
) -> None:
    """The settle-time probes, with the queue drained: the checker's own
    probes once more (a counted round) or, given ``final``, those
    instead under a ``final:`` prefix; then nothing may be in flight."""
    if final is None:
        checker.check_now()
    now = net.sim.now
    for name, probe in (final or {}).items():
        for detail in probe():
            checker.violations.append(Violation(now, f"final:{name}", detail))
    for detail in network_quiescence(net)():
        checker.violations.append(Violation(now, "network_quiescence", detail))


@dataclass
class SoakDoc:
    """The outcome of one soak, stored in the shape of its document: a
    report adds its fields as they are written (counters grouped in
    dicts, floats rounded), so :meth:`to_doc` is the fields and
    :meth:`render` frames the lines a report adds.  ``passed`` iff no
    invariant was violated."""

    #: The first line of :meth:`render`, formatted with the fields.
    HEADLINE: ClassVar[str] = "soak: seed={seed} duration={duration_s:g}s"

    seed: int
    duration_s: float
    scenario_digest: str
    event_counts: dict[str, int]
    #: ``{"at", "kind"}`` per fault event, in the order applied.
    events_applied: list[dict]
    violations: list[Violation]
    probes_run: int

    @classmethod
    def of(
        cls, config, scenario: Scenario, engine: FaultEngine,
        checker: InvariantChecker, **rest,
    ) -> "SoakDoc":
        """The report of a finished run; ``rest`` are its own fields."""
        return cls(
            seed=config.seed,
            duration_s=config.duration_s,
            scenario_digest=scenario.digest(),
            event_counts=scenario.counts(),
            events_applied=engine.applied,
            violations=list(checker.violations),
            probes_run=checker.probes_run,
            **rest,
        )

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        """Deterministic document: simulation-derived values only."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["violations"] = [v.to_doc() for v in self.violations]
        doc["passed"] = self.passed
        return doc

    def to_json(self) -> str:
        return canonical.encode(self.to_doc())

    def render(self) -> str:
        lines = [
            self.HEADLINE.format_map(vars(self)),
            f"schedule digest: {self.scenario_digest[:16]}... "
            f"({sum(self.event_counts.values())} events)",
            "events: " + ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.event_counts.items())
            ),
            *self._lines(),
            f"invariant probes run: {self.probes_run}",
        ]
        if self.passed:
            lines.append("PASS: zero invariant violations")
        else:
            lines.append(f"FAIL: {len(self.violations)} violation(s)")
            for violation in self.violations[:20]:
                lines.append(f"  {violation}")
        return "\n".join(lines)

    def _lines(self) -> list[str]:
        """The report's own lines, between the schedule and the probes."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The monolithic deployment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run.  Everything random derives from ``seed``."""

    seed: int = 1
    duration_s: float = 60.0
    num_chains: int = 8
    partition: bool = False
    #: Control-plane fault mode: live bus-driven installs run mid-soak
    #: while control links lose messages and the active Global
    #: Switchboard crashes once; the resilience stack (reliable RPC,
    #: deadlines, sweeper, standby failover) must keep every invariant.
    control_faults: bool = False
    control_loss: float = 0.2
    scenario: ScenarioConfig | None = None

    def __post_init__(self) -> None:
        check_duration(self.duration_s)
        if self.num_chains < 1:
            raise ScenarioError(f"num_chains must be positive, got {self.num_chains}")
        if not 0.0 <= self.control_loss <= 1.0:
            raise ScenarioError(f"control_loss must be in [0, 1], got {self.control_loss}")
        if self.scenario_config().gs_crash:
            failover_s = _LEASE_DURATION_S + _LEASE_RENEW_S
            check_failover_fits(self.duration_s, GS_CRASH_WINDOW[1], failover_s)

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


#: Forward demand of a base chain (a live install asks half).
_CHAIN_DEMAND = 3.0
#: Publishes per second per site of the pub/sub workload.
_PUBLISH_RATE_HZ = 4.0
#: The controller lease: its duration and the renewal period.
_LEASE_DURATION_S = 4.0
_LEASE_RENEW_S = 1.5
#: Bus-driven installs submitted mid-run in control-fault mode, and how
#: long each may stay in flight.
_LIVE_INSTALLS = 6
_INSTALL_DEADLINE_S = 8.0

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
    net = SimNetwork(sim)
    net.set_fault_rng(random.Random(f"loss-{config.seed}"))
    bus = make_bus(
        list(SITES),
        wan_delay_s=0.020,
        uplink_bps=50e6,
        uplink_buffer_bytes=128_000,
        network=net,
    )

    # Capacity: every VNF at every site, sized so three surviving sites
    # can carry the whole population (a single-site outage is fully
    # recoverable; concurrent link faults may still degrade).
    total_load = config.num_chains * 2.5 * _CHAIN_DEMAND
    per_site = total_load * 1.6 / (len(SITES) - 1)
    capacity = {site: per_site for site in SITES}
    vnfs = [VNF("fw", 1.0, dict(capacity)), VNF("nat", 1.0, dict(capacity))]
    model = NetworkModel(
        ["a", "b", "c", "d"],
        dict(_NODE_LATENCY),
        [CloudSite(s, s.lower(), 10 * per_site) for s in SITES],
        vnfs,
    )
    dp = DataPlane(random.Random(0))
    gs = GlobalSwitchboard(model, dp)
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
                forward_demand=_CHAIN_DEMAND,
                reverse_demand=_CHAIN_DEMAND * 0.25,
                dst_prefixes=[f"20.0.{i}.0/24"],
            )
        )

    store = ReplicatedStore([f"ctl.{s}" for s in SITES])
    deployment = Deployment(sim, net, bus, gs, store, LeaseMonitor(store))
    if config.control_faults:
        deployment.installer = BusDrivenInstaller(
            gs,
            bus,
            gs_site="A",
            edge_controller_site="A",
            vnf_controller_sites={"fw": "B", "nat": "C"},
            resilience=ResilienceConfig(
                install_deadline_s=_INSTALL_DEADLINE_S,
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


class ChaosEngine(FaultEngine):
    """The monolithic deployment's engine: adds link loss and
    degradation, site-grouped partitions, site outages, control-link
    loss, the GS crash and the leader kill, and holds the lease-only
    election loop."""

    def __init__(self, deployment: Deployment):
        super().__init__(deployment)
        self.reports: list[FailureReport] = []
        #: site -> (site capacity, per-VNF capacity) stashed at failure.
        self._site_stash: dict[str, tuple[float, dict[str, float]]] = {}
        self._site_reports: dict[str, FailureReport] = {}
        #: Started by :func:`run_soak` unless a FailoverManager owns the
        #: lease (control-fault mode); ``kill_leader`` acts on it.
        self.election = _LeaseOnly(
            deployment.sim, deployment.store, CANDIDATES, deployment.monitor,
            _LEASE_DURATION_S, _LEASE_RENEW_S,
        )
        self.leaders_killed = 0
        self.gs_crashes = 0

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
            3 * _LEASE_DURATION_S, self.election.revive, leader
        )

    HANDLERS = {
        **FaultEngine.HANDLERS,
        "link_loss": _on_link_loss,
        "link_degrade": _on_link_degrade,
        "partition": _on_partition,
        "fail_site": _on_fail_site,
        "restore_site": _on_restore_site,
        "control_loss": _on_control_loss,
        "gs_crash": _on_gs_crash,
        "kill_leader": _on_kill_leader,
    }


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
    count = int(config.duration_s * _PUBLISH_RATE_HZ)
    for site in d.sites:
        for k in range(count):
            at = (k + rng.random()) / _PUBLISH_RATE_HZ
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
    for i in range(_LIVE_INSTALLS):
        ingress, egress = rng.sample(list(d.sites), 2)
        chain_vnfs = ["fw"] if rng.random() < 0.5 else ["fw", "nat"]
        spec = ChainSpecification(
            f"live{i}", "vpn", f"att-{ingress}", f"att-{egress}",
            chain_vnfs,
            forward_demand=_CHAIN_DEMAND * 0.5,
            reverse_demand=_CHAIN_DEMAND * 0.125,
            dst_prefixes=[f"21.0.{i}.0/24"],
        )
        d.sim.schedule_at(
            rng.uniform(lo, hi),
            installer.install, spec, d.live_timelines.append,
        )


# ---------------------------------------------------------------------------
# Report and run
# ---------------------------------------------------------------------------


@dataclass
class SoakReport(SoakDoc):
    """Outcome of one monolithic soak.  ``control`` (live installs under
    control faults) is all zeros, and ``workload`` (a workload schedule)
    empty, in the modes that do not run them."""

    HEADLINE: ClassVar[str] = (
        "chaos soak: seed={seed} duration={duration_s:g}s chains={chains}"
    )

    chains: int
    carried_before: float
    carried_after: float
    recovery: list[dict]
    bus: dict[str, int]
    drop_reasons: dict[str, int]
    lease: dict[str, int]
    control: dict[str, int]
    workload: dict

    def _lines(self) -> list[str]:
        lines = [
            f"carried fraction: {self.carried_before:.3f} before -> "
            f"{self.carried_after:.3f} after",
        ]
        for entry in self.recovery:
            lines.append(
                f"  {entry['kind']} {entry['target']}: "
                f"{entry['affected']} chain(s) affected, "
                f"{entry['ratio']:.0%} of affected traffic restored"
            )
        bus = self.bus
        lines.append(
            f"bus: {bus['published']} published, "
            f"{bus['delivered']} delivered, "
            f"{bus['wan_drops']} WAN drops"
        )
        if self.drop_reasons:
            lines.append(
                "drops by reason: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.drop_reasons.items())
                )
            )
        lease = self.lease
        lines.append(
            f"leases: {lease['grants']} grant(s), "
            f"{lease['transitions']} leader transition(s), "
            f"{lease['killed']} kill(s)"
        )
        c = self.control
        if c["installs_submitted"]:
            lines.append(
                f"control plane: {c['installs_submitted']} live "
                f"install(s) -> {c['installs_completed']} completed, "
                f"{c['installs_failed']} aborted "
                f"({c['deadline_aborts']} by deadline); "
                f"rpc {c['rpc_sent']} sent / {c['rpc_retries']} retries / "
                f"{c['rpc_timeouts']} timeouts / "
                f"{c['rpc_duplicates']} dups suppressed; "
                f"{c['gs_crashes']} GS crash(es), "
                f"{c['failover_takeovers']} takeover(s), "
                f"{c['stale_reservations_swept']} stale reservation(s) swept"
            )
        w = self.workload
        if w["digest"]:
            lines.append(
                f"workload: digest {w['digest'][:16]}..., "
                f"{w['ops_applied']} op(s) applied, " + ", ".join(
                    f"{k}={v}" for k, v in sorted(w["counts"].items()) if v
                )
            )
        return lines


def _mean_carried(gs: GlobalSwitchboard) -> float:
    fractions = [inst.routed_fraction for inst in gs.installations.values()]
    return sum(fractions) / len(fractions) if fractions else 0.0


def run_soak(
    config: SoakConfig | None = None,
    scenario: Scenario | None = None,
    workload=None,
    planted_probes: Callable[[Any], Probes] | None = None,
) -> SoakReport:
    """Run one seeded chaos soak end to end.

    Passing an explicit ``scenario`` replays that exact schedule (e.g.
    one parsed from a previously saved report); otherwise the schedule
    is generated from ``config.seed``.

    ``workload`` plays a :class:`repro.scenarios.WorkloadSchedule` of
    chain creates/removes/demand changes against the deployment on the
    same simulated clock, composing with the fault schedule -- this is
    the scenario-fuzzer entry point.  ``planted_probes`` is given the
    live :class:`repro.scenarios.apply.WorkloadEngine` (``None`` without
    a workload) and returns probes (name -> zero-argument callable
    returning problem strings) to run on the checker's cadence; the
    fuzz self-tests plant a provably-detectable violation through it.
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
        wan_pairs = [
            (f"wan.{a}", proxy_name(b)) for a in d.sites for b in d.sites if a != b
        ]
        scenario = generate_scenario(
            config.seed, d.sites, wan_pairs, config.scenario_config()
        )

    engine = ChaosEngine(d)
    engine.schedule(scenario)
    if config.control_faults and d.installer is not None:
        # The failover manager owns the lease in control-fault mode
        # (renewal while the active GS lives, takeover when it dies).
        d.failover = FailoverManager(
            d.installer,
            d.store,
            monitor=d.monitor,
            candidates=CANDIDATES,
            lease_duration_s=_LEASE_DURATION_S,
            check_interval_s=_LEASE_RENEW_S,
        )
        d.failover.start(config.duration_s)
        d.sweeper = ReconciliationSweeper(d.installer)
        d.sweeper.start(config.duration_s)
        _start_install_workload(d, config)
    else:
        engine.election.start(config.duration_s)
    _start_workload(d, config)

    checker = probe_run(
        d,
        config,
        {
            "link_conservation": link_conservation(d.net),
            "two_phase_atomicity": two_phase_atomicity(d.gs, d.installer),
            "capacity_safety": capacity_safety(d.gs, d.installer),
            "no_orphaned_reservations": no_orphaned_reservations(d.gs, d.installer),
            "bus_delivery": bus_delivery(d.bus),
            "lease_safety": lease_safety(d.monitor),
        },
        planted_probes(workload_engine) if planted_probes is not None else {},
    )
    record_final(checker, d.net)

    owners = [g.owner for g in d.monitor.grants]
    installer, failover, sweeper = d.installer, d.failover, d.sweeper
    rpc = installer.rpc if installer else None
    submitted = len(d.live_timelines)
    completed = sum(1 for t in d.live_timelines if t.completed_at is not None)
    return SoakReport.of(
        config, scenario, engine, checker,
        chains=config.num_chains,
        carried_before=round(carried_before, 6),
        carried_after=round(_mean_carried(d.gs), 6),
        recovery=[
            {"kind": r.kind, "target": r.site, "affected": len(r.affected_chains),
             "ratio": round(r.recovery_ratio(), 6)}
            for r in engine.reports
        ],
        bus={
            "published": d.bus.stats.published,
            "delivered": d.bus.stats.delivered,
            "wan_drops": d.bus.stats.wan_drops,
        },
        drop_reasons=dict(sorted(d.net.drop_reasons.items())),
        lease={
            "grants": len(owners),
            # Owner changes across the recorded grants.
            "transitions": sum(a != b for a, b in zip(owners, owners[1:])),
            "killed": engine.leaders_killed,
        },
        control={
            "installs_submitted": submitted,
            "installs_completed": completed,
            "installs_failed": submitted - completed,
            "deadline_aborts": installer.deadline_aborts if installer else 0,
            "rpc_sent": rpc.sent if rpc else 0,
            "rpc_retries": rpc.retries if rpc else 0,
            "rpc_timeouts": rpc.timeouts if rpc else 0,
            "rpc_duplicates": rpc.duplicates_suppressed if rpc else 0,
            "gs_crashes": engine.gs_crashes,
            "failover_takeovers": failover.takeovers if failover else 0,
            "stale_reservations_swept":
                sweeper.stale_reservations_released if sweeper else 0,
        },
        workload={
            "digest": workload.digest() if workload is not None else "",
            "counts": dict(workload_engine.counts) if workload_engine else {},
            "ops_applied": len(workload_engine.applied) if workload_engine else 0,
        },
    )
