"""The five ledger workloads.

Each workload has ``generate(seed, lap, scale)`` -- the op stream of one
lap, a pure function of (seed, lap), with its SHA-256 digest -- and
``lap(inputs, tracer)`` -- set the system up from nothing (timed as
``setup_s``), run the op stream (the timed section), check every output.
A run measures laps 0, 1, 2, ... of its seed until its time is up: every
lap is a fresh set-up and a fresh stream, so the wall-clock figures are
medians over independent samples of the input distribution, not over
repeats of one input.  Everything that is a function of the seed alone
(simulated latencies, carried fractions, exact counts) is read off lap 0.

What the seed does *not* change is the network the two re-plan workloads
plan for (``INSTANCE_SEED``): an operator's backbone, VNF placement and
customer base are the same on Monday and on Tuesday, while demands and
churn differ.  LP solve time depends so strongly on the instance (2x
between instances of one size) that a per-seed instance would make every
timing a measurement of the draw, not of the program.

The program under ``src/`` only ever receives the generated chains,
specs and packets: no workload name or seed crosses that boundary (the
seeds handed to ``ResilienceConfig`` / ``DataPlane`` are the RNG inputs
those public constructors ask for).

Sizes are the constants at the top of each class, chosen so one lap is
2-4 s on the 2-core box this was written on; README.md has the
measurements and how to re-size.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.chaos.invariants import (
    InvariantChecker,
    LeaseMonitor,
    bus_delivery,
    capacity_safety,
    lease_safety,
    link_conservation,
    network_quiescence,
    no_orphaned_reservations,
    two_phase_atomicity,
)
from repro.controller.global_switchboard import InstallationError
from repro.controller.replication import remove_checkpoint
from repro.core.dp import route_chains_dp
from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    matrix_cache_stats,
    solve_chain_routing_lp,
)
from repro.dataplane.forwarder import ForwardingError
from repro.dataplane.labels import Packet
from repro.federation import FederationError, GlobalCoordinator, check_all
from repro.resilience import FailoverManager, ReconciliationSweeper
from repro.topology.backbone import build_backbone
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.pops import PopGridConfig, generate_federation_workload
from repro.topology.workload import WorkloadConfig, generate_workload

from catalog import median
from deployment import (
    LIVE_CHAINS,
    NUM_SITES,
    VNF_SERVICES,
    build_deployment,
    chain_spec,
    check_forward,
    check_reverse,
    flow_of,
)

clock = time.perf_counter
#: The one network the re-plan workloads plan for (see the module docstring).
INSTANCE_SEED = 7


@dataclass
class Inputs:
    """A generated op stream.  ``params`` and ``digest`` go into the
    output document; ``data`` is what ``lap`` consumes."""

    params: dict
    digest: str
    data: dict


@dataclass
class Lap:
    """What one lap measured."""

    setup_s: float = 0.0
    #: Wall seconds of the timed section (checks between ops excluded).
    wall_s: float = 0.0
    #: perf_counter bounds of the timed section (for the tracer).
    t0: float = 0.0
    t1: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    #: One line per failed op or failed end-of-lap check.
    failures: list[str] = field(default_factory=list)
    #: Functions of the seed alone; must repeat exactly across laps.
    facts: dict = field(default_factory=dict)
    #: Exact program counters behind the per-layer metrics.
    counters: dict = field(default_factory=dict)
    sim_latency_ms: list[float] = field(default_factory=list)
    #: Open loop only: how late (simulated ms) the generator submitted.
    lateness_ms: list[float] = field(default_factory=list)
    #: Set by ``run.py``: machine speed around this lap, 1.0 = nominal.
    slowdown: float = 1.0


def _digest(document) -> str:
    payload = json.dumps(document, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


def _phase(tracer, name: str):
    return tracer.phase(name) if tracer is not None else nullcontext()


def _unrecorded(tracer):
    """Output checks run inside the timed loop but are the benchmark's
    work, not the program's: no spans, and their time leaves the wall."""
    return tracer.paused() if tracer is not None else nullcontext()


def _begin_timed() -> None:
    """Every timed section starts from a collected heap, so a lap does
    not inherit the garbage of the setup before it."""
    gc.collect()


def _carried(gs) -> float:
    """Demand carried / demand offered over the installed chains."""
    offered = carried = 0.0
    for inst in gs.installations.values():
        demand = inst.spec.forward_demand + inst.spec.reverse_demand
        offered += demand
        carried += demand * inst.routed_fraction
    return carried / offered if offered else 0.0


# ---------------------------------------------------------------------------
# te_replan
# ---------------------------------------------------------------------------


class TeReplan:
    name = "te_replan"
    why = (
        "operator TE loop on one 25-PoP model: LP structure cache hit "
        "(demand-only) vs miss (chain churn) rounds; solvers do all the work"
    )
    CHAINS = 16
    TRAFFIC = 500.0
    VNFS = 12
    COVERAGE = 0.5
    ROUNDS = 10
    #: Every fifth round changes the chain set; the rest only demands.
    STRUCTURE_EVERY = 5
    DEMAND_SHARE = 0.10
    CHURN_SHARE = 0.05

    def generate(self, seed: int, lap: int = 0, scale: float = 1.0) -> Inputs:
        rng = random.Random(f"te-{seed}-{lap}")
        n_chains = _scaled(self.CHAINS, scale, 6)
        n_rounds = _scaled(self.ROUNDS, scale, self.STRUCTURE_EVERY)
        churn = max(1, round(n_chains * self.CHURN_SHARE))
        touched = max(1, round(n_chains * self.DEMAND_SHARE))
        # Churn is first-in first-out and demand jitter walks round-robin
        # through the customer base; the seed draws only the factors,
        # each relative to the chain's base demand (no drift).  Which
        # chains move decides how hard the re-solve is, so drawing that
        # too would time the draw, not the solver.
        names = [f"chain{i:05d}" for i in range(n_chains)]
        spare = n_chains
        cursor = 0
        rounds = []
        for r in range(n_rounds):
            if r % self.STRUCTURE_EVERY == self.STRUCTURE_EVERY - 1:
                removed, names = names[:churn], names[churn:]
                added = [f"chain{spare + i:05d}" for i in range(churn)]
                spare += churn
                names += added
                rounds.append({"remove": removed, "add": added})
            else:
                picked = [names[(cursor + i) % len(names)] for i in range(touched)]
                cursor += touched
                rounds.append({"scale": {
                    n: round(rng.uniform(0.8, 1.25), 6) for n in picked
                }})
        params = {
            "pops": len(DEFAULT_CITIES), "chains": n_chains,
            "vnfs": self.VNFS, "coverage": self.COVERAGE,
            "rounds": n_rounds, "generated_chains": spare,
            "workload_seed": INSTANCE_SEED,
            # per-chain demand stays put when the workload is shrunk
            "total_traffic": self.TRAFFIC * spare / self.CHAINS,
        }
        return Inputs(params, _digest([params, rounds]), {"rounds": rounds})

    def lap(self, inputs: Inputs, tracer=None) -> Lap:
        lap, p = Lap(), inputs.params
        with _phase(tracer, "setup"):
            start = clock()
            backbone = build_backbone(DEFAULT_CITIES)
            full = generate_workload(
                WorkloadConfig(
                    num_chains=p["generated_chains"], num_vnfs=p["vnfs"],
                    coverage=p["coverage"], seed=p["workload_seed"],
                    total_traffic=p["total_traffic"],
                ),
                backbone,
            )
            pool = dict(full.chains)
            model = full.copy_with_chains(list(pool.values())[: p["chains"]])
            lap.setup_s = clock() - start

        def check(result, dp, what: str) -> float:
            """Seconds spent checking (kept out of the timed wall)."""
            began = clock()
            with _unrecorded(tracer):
                problems = []
                if not result.ok:
                    problems.append(f"LP status {result.status}")
                else:
                    problems += result.solution.violations()
                problems += dp.solution.violations()
            if problems:
                lap.failures.append(f"{what}: {problems[0]}")
            return clock() - began

        with _phase(tracer, "timed"):
            _begin_timed()
            clear_matrix_cache()
            checking = 0.0
            lap.t0 = clock()
            result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
            dp = route_chains_dp(model)
            checking += check(result, dp, "cold plan")
            # The cold plan is the same program on every seed, so its
            # carried share is one number a worse router cannot hide in.
            cold_carried = (
                result.solution.throughput() / model.total_demand()
                if result.ok else 0.0
            )
            for i, round_ in enumerate(inputs.data["rounds"]):
                if tracer is not None:
                    tracer.op = i
                began = clock()
                if "scale" in round_:
                    factors = round_["scale"]
                    # Same chains in the same order: the LP structure
                    # digest is unchanged, so this is the cache-hit path.
                    model = model.copy_with_chains([
                        pool[c.name].scaled(factors[c.name])
                        if c.name in factors else c
                        for c in model.chains.values()
                    ])
                else:
                    for name in round_["remove"]:
                        model.remove_chain(name)
                    for name in round_["add"]:
                        model.add_chain(pool[name])
                result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
                dp = route_chains_dp(model)
                lap.op_ms.append((clock() - began) * 1e3)
                lap.attempted += 1
                checking += check(result, dp, f"round {i}")
            lap.t1 = clock()
            lap.wall_s = lap.t1 - lap.t0 - checking

        offered = model.total_demand()
        lap.facts = {
            "carried_fraction": cold_carried,
            "final_carried_fraction": (
                result.solution.throughput() / offered if result.ok else 0.0
            ),
            "final_dp_carried_fraction": dp.solution.throughput() / offered,
            "lp_variables": result.num_variables,
        }
        stats = matrix_cache_stats()
        lap.counters = {
            "lp.structure_hits": stats["matrix_reuse_hits"],
            "lp.structure_rebuilds": stats["matrix_rebuilds"],
        }
        return lap


# ---------------------------------------------------------------------------
# federated_replan
# ---------------------------------------------------------------------------


def _plan_carried(plan) -> float:
    return plan.carried_demand / plan.offered_demand if plan.offered_demand else 0.0


class FederatedReplan:
    name = "federated_replan"
    why = (
        "same solvers reached through shard -> coordinator -> regional "
        "-> partition/farm/cache; incremental resolve vs cross-region churn"
    )
    POPS = 36
    METROS = 3
    CHAINS = 120
    TRAFFIC = 2000.0
    PARTITION_SIZE = 16
    ROUNDS = 10
    CHURN_EVERY = 5
    SCALE_SHARE = 0.03
    CHURN_SHARE = 0.02

    def generate(self, seed: int, lap: int = 0, scale: float = 1.0) -> Inputs:
        rng = random.Random(f"fed-{seed}-{lap}")
        n_chains = _scaled(self.CHAINS, scale, 24)
        n_pops = _scaled(self.POPS, max(scale, 0.25), 12)
        n_metros = self.METROS if n_pops >= 24 else 2
        n_rounds = _scaled(self.ROUNDS, scale, self.CHURN_EVERY)
        touched = max(1, round(n_chains * self.SCALE_SHARE))
        churn = max(1, round(n_chains * self.CHURN_SHARE))
        names = [f"chain{i:06d}" for i in range(n_chains)]
        spare = n_chains
        rounds = []
        for r in range(n_rounds):
            round_ = {"remove": [], "add": []}
            if r % self.CHURN_EVERY == self.CHURN_EVERY - 1:
                round_["remove"] = rng.sample(names, churn)
                round_["add"] = [f"chain{spare + i:06d}" for i in range(churn)]
                spare += churn
                names = [n for n in names if n not in round_["remove"]]
                names += round_["add"]
            round_["scale"] = {
                n: rng.choice([0.8, 1.25]) for n in rng.sample(names, touched)
            }
            rounds.append(round_)
        params = {
            "pops": n_pops, "metros": n_metros, "chains": n_chains,
            "partition_size": self.PARTITION_SIZE, "rounds": n_rounds,
            "generated_chains": spare, "workload_seed": INSTANCE_SEED,
            "total_traffic": self.TRAFFIC * spare / self.CHAINS,
        }
        return Inputs(params, _digest([params, rounds]), {"rounds": rounds})

    def lap(self, inputs: Inputs, tracer=None) -> Lap:
        lap, p = Lap(), inputs.params
        with _phase(tracer, "setup"):
            start = clock()
            full, _metro_of = generate_federation_workload(PopGridConfig(
                num_pops=p["pops"], num_metros=p["metros"],
                num_chains=p["generated_chains"], seed=p["workload_seed"],
                total_traffic=p["total_traffic"],
            ))
            pool = dict(full.chains)
            model = full.copy_with_chains([])
            coordinator = GlobalCoordinator(
                model, n_regions=p["metros"],
                partition_size=p["partition_size"], max_workers=1,
            )
            lap.setup_s = clock() - start

        cross_installed = 0

        def submit(name: str, what: str) -> None:
            nonlocal cross_installed
            try:
                placed = coordinator.submit(pool[name])
            except FederationError as exc:
                lap.failures.append(f"{what}: {exc}")
            else:
                cross_installed += not isinstance(placed, int)

        def check(plan, what: str) -> float:
            began = clock()
            with _unrecorded(tracer):
                problems = [] if plan.ok else [f"plan status {plan.status}"]
                problems += plan.violations
                problems += check_all(coordinator, plan)
            if problems:
                lap.failures.append(f"{what}: {problems[0]}")
            return clock() - began

        def cache_misses() -> int:
            return sum(
                r.farm.cache.stats.misses for r in coordinator.regionals.values()
            )

        with _phase(tracer, "timed"):
            _begin_timed()
            clear_matrix_cache()
            checking = 0.0
            lap.t0 = clock()
            for name in list(pool)[: p["chains"]]:
                submit(name, "base install")
            plan = coordinator.plan_all(LpObjective.MAX_THROUGHPUT)
            misses_cold = cache_misses()
            checking += check(plan, "cold plan")
            cold_carried = _plan_carried(plan)
            for i, round_ in enumerate(inputs.data["rounds"]):
                if tracer is not None:
                    tracer.op = i
                before = len(lap.failures)
                began = clock()
                for name in round_["remove"]:
                    if name in model.chains:
                        coordinator.remove(name)
                for name in round_["add"]:
                    submit(name, f"round {i}")
                # a chain whose install was refused (already a failed
                # op) has no demand to scale
                scaled = [n for n in round_["scale"] if n in model.chains]
                for name in scaled:
                    chain = model.chains[name]
                    model.remove_chain(name)
                    model.add_chain(chain.scaled(round_["scale"][name]))
                plan = coordinator.resolve(model, scaled)
                lap.op_ms.append((clock() - began) * 1e3)
                lap.attempted += 1
                checking += check(plan, f"round {i}")
                # one failed op, however many of its checks failed
                del lap.failures[before + 1:]
            lap.t1 = clock()
            lap.wall_s = lap.t1 - lap.t0 - checking

        stats = coordinator.stats()
        lap.facts = {
            "carried_fraction": cold_carried,
            "final_carried_fraction": _plan_carried(plan),
            "chains_cross": stats["chains_cross"],
            "borders": stats["borders"],
        }
        lp_cache = matrix_cache_stats()
        lap.counters = {
            "lp.structure_hits": lp_cache["matrix_reuse_hits"],
            "lp.structure_rebuilds": lp_cache["matrix_rebuilds"],
            "cache.hits": sum(
                r.farm.cache.stats.hits for r in coordinator.regionals.values()
            ),
            "cache.misses": cache_misses(),
            "cache.misses_cold": misses_cold,
            "cross_shard_ratio": stats["cross_shard_ratio"],
            "cross_installed": cross_installed,
        }
        return lap


# ---------------------------------------------------------------------------
# chain_install / install_faulty / packet_forward: the 12-site deployment
# ---------------------------------------------------------------------------


def _spec_stream(rng: random.Random, count: int) -> list[dict]:
    """``count`` chain requests between random site pairs through one to
    three VNF services in catalogue order."""
    sites = [c.name for c in DEFAULT_CITIES[:NUM_SITES]]
    stream = []
    for index in range(count):
        ingress, egress = rng.sample(sites, 2)
        chosen = rng.sample(VNF_SERVICES, rng.randint(1, 3))
        stream.append({
            "index": index, "ingress": ingress, "egress": egress,
            "vnfs": [v for v in VNF_SERVICES if v in chosen],
        })
    return stream


def _spec(entry: dict, attempt: int = 0):
    name = f"c{entry['index']}" + (f".r{attempt}" if attempt else "")
    return chain_spec(
        entry["index"], name, entry["ingress"], entry["egress"], entry["vnfs"]
    )


def _populate(d, entries: list[dict], lap: Lap) -> deque:
    """Base population: synchronous installs, oldest first."""
    live = deque()
    for entry in entries:
        spec = _spec(entry)
        try:
            d.gs.create_chain(spec)
        except InstallationError as exc:
            lap.failures.append(f"base population {spec.name}: {exc}")
        else:
            live.append(spec.name)
    return live


def _retire_oldest(d, live: deque) -> None:
    """Tear the oldest live chain down.  A bus-driven install leaves a
    durable checkpoint the synchronous ``remove_chain`` does not know
    about; without dropping it a later standby takeover would adopt the
    removed chain again."""
    name = live.popleft()
    d.gs.remove_chain(name)
    remove_checkpoint(d.store, name)


def _first_packets(d, entry: dict, spec, lap: Lap) -> bool:
    """Send the chain's first forward packet and its reply; record why
    if either walk is wrong.  True when both are right."""
    flow = flow_of(entry["index"], 0)
    egress_edge = d.edges[entry["egress"]]
    forward = d.edges[entry["ingress"]].ingress(Packet(flow))
    problem = check_forward(forward, spec, egress_edge.name)
    if problem is None:
        reply = egress_edge.send_reverse(Packet(flow.reversed()))
        problem = check_reverse(reply, forward)
    if problem is not None:
        lap.failures.append(f"{spec.name}: {problem}")
    return problem is None


def _deployment_counters(d) -> dict:
    net, bus = d.net, d.bus
    tables = [f.flow_table for f in d.dataplane.forwarders.values()]
    counters = {
        "simnet.events": d.sim.events_processed,
        "simnet.link_drops": sum(net.drop_reasons.values()),
        "bus.published": bus.stats.published,
        "bus.wan_messages": bus.stats.wan_messages,
        "bus.wan_drops": bus.stats.wan_drops,
        "flowtable.hits": sum(t.hits for t in tables),
        "flowtable.misses": sum(t.misses for t in tables),
        "flowtable.inserts": sum(t.inserts for t in tables),
        "dataplane.hops": sum(
            f.packets_forwarded for f in d.dataplane.forwarders.values()
        ),
        "dataplane.drops": len(d.dataplane.drops),
        "edge.unclassified": sum(len(e.unclassified) for e in d.edges.values()),
    }
    if d.installer is not None:
        rpc = d.installer.rpc
        counters.update({
            "rpc.sent": rpc.sent, "rpc.retries": rpc.retries,
            "rpc.timeouts": rpc.timeouts,
            "rpc.duplicates": rpc.duplicates_suppressed,
            "protocol.deadline_aborts": d.installer.deadline_aborts,
            "protocol.aborted": d.installer.aborted,
        })
    return counters


def _end_of_lap_checks(d, lap: Lap) -> None:
    if d.dataplane.drops:
        packet, where = d.dataplane.drops[0]
        lap.failures.append(
            f"{len(d.dataplane.drops)} packet(s) dropped, first at {where} "
            f"after {packet.trace}"
        )
    unclassified = sum(len(e.unclassified) for e in d.edges.values())
    if unclassified:
        lap.failures.append(f"{unclassified} packet(s) matched no classifier")


def _stage_ms(timelines) -> dict:
    """Median simulated duration of each Figure 4 stage (the Table 2
    analogue), over the installs that completed."""
    stages = {"resolve": [], "twopc": [], "publish": [], "configure": []}
    for t in timelines:
        if t.completed_at is None or t.route_committed_at is None:
            continue
        stages["resolve"].append(t.sites_resolved_at - t.requested_at)
        stages["twopc"].append(t.route_committed_at - t.sites_resolved_at)
        stages["publish"].append(t.route_published_at - t.route_committed_at)
        stages["configure"].append(t.completed_at - t.route_published_at)
    return {
        f"protocol.sim_{stage}_ms": median(values) * 1e3
        for stage, values in stages.items()
    }


class ChainInstall:
    name = "chain_install"
    why = (
        "customer path of Fig. 4 / Table 2, closed loop, no faults: "
        "protocol, bus, simnet, rpc, vnf, edge do the work; one chain per solve"
    )
    OPS = 500

    def generate(self, seed: int, lap: int = 0, scale: float = 1.0) -> Inputs:
        rng = random.Random(f"install-{seed}-{lap}")
        base = _scaled(LIVE_CHAINS, scale, 8)
        ops = _scaled(self.OPS, scale, 16)
        stream = _spec_stream(rng, base + ops)
        params = {
            "sites": NUM_SITES, "live_chains": base, "ops": ops,
            "rng_seed": seed * 1000 + lap,
        }
        return Inputs(params, _digest([params, stream]), {"stream": stream})

    def lap(self, inputs: Inputs, tracer=None) -> Lap:
        lap, p = Lap(), inputs.params
        stream = inputs.data["stream"]
        with _phase(tracer, "setup"):
            start = clock()
            d = build_deployment(p["rng_seed"])
            live = _populate(d, stream[: p["live_chains"]], lap)
            lap.setup_s = clock() - start

        timelines = []
        with _phase(tracer, "timed"):
            _begin_timed()
            lap.t0 = clock()
            for i, entry in enumerate(stream[p["live_chains"]:]):
                if tracer is not None:
                    tracer.op = i
                spec = _spec(entry)
                began = clock()
                timeline = d.installer.install(spec)
                d.net.run()
                if timeline.completed_at is None:
                    lap.failures.append(f"{spec.name}: {timeline.failed}")
                elif _first_packets(d, entry, spec, lap):
                    live.append(spec.name)
                    _retire_oldest(d, live)
                lap.op_ms.append((clock() - began) * 1e3)
                lap.attempted += 1
                timelines.append(timeline)
            lap.t1 = clock()
            lap.wall_s = lap.t1 - lap.t0

        _end_of_lap_checks(d, lap)
        lap.sim_latency_ms = [
            t.total_s * 1e3 for t in timelines if t.completed_at is not None
        ]
        lap.facts = {
            "carried_fraction": _carried(d.gs),
            "sim_now": d.sim.now,
            "live": len(d.gs.installations),
        }
        lap.counters = {**_deployment_counters(d), **_stage_ms(timelines)}
        return lap


class InstallFaulty:
    name = "install_faulty"
    why = (
        "same install path, open loop on the simulated clock under control-"
        "link loss and one controller crash: retransmit, dedup, abort, failover"
    )
    OPS = 400
    RATE_PER_S = 5.0
    LOSS = 0.20
    #: Two loss windows covering 30 % of the run, crash at 40 %.
    LOSS_WINDOWS = ((0.15, 0.30), (0.60, 0.75))
    CRASH_AT = 0.40
    LEASE_S = 4.0
    LEASE_CHECK_S = 1.5
    PROBE_S = 1.0
    #: Horizon past the last arrival: one install deadline plus slack.
    DRAIN_S = 15.0
    #: A customer re-submits an aborted install this many times at most.
    MAX_SUBMITS = 3

    def generate(self, seed: int, lap: int = 0, scale: float = 1.0) -> Inputs:
        rng = random.Random(f"install-{seed}-{lap}")
        base = _scaled(LIVE_CHAINS, scale, 8)
        ops = _scaled(self.OPS, scale, 60)
        stream = _spec_stream(rng, base + ops)
        duration = ops / self.RATE_PER_S
        faults = [
            {"at": round(lo * duration, 6), "loss": self.LOSS, "until": round(hi * duration, 6)}
            for lo, hi in self.LOSS_WINDOWS
        ]
        params = {
            "sites": NUM_SITES, "live_chains": base, "ops": ops,
            "rng_seed": seed * 1000 + lap,
            "rate_per_s": self.RATE_PER_S, "duration_s": duration,
            "loss_windows": faults, "crash_at_s": round(self.CRASH_AT * duration, 6),
        }
        return Inputs(params, _digest([params, stream]), {"stream": stream})

    def lap(self, inputs: Inputs, tracer=None) -> Lap:
        lap, p = Lap(), inputs.params
        stream = inputs.data["stream"]
        horizon = p["duration_s"] + self.DRAIN_S
        with _phase(tracer, "setup"):
            start = clock()
            d = build_deployment(p["rng_seed"])
            installer, sim, net = d.installer, d.sim, d.net
            live = _populate(d, stream[: p["live_chains"]], lap)
            monitor = LeaseMonitor(d.store)
            failover = FailoverManager(
                installer, d.store, monitor=monitor,
                lease_duration_s=self.LEASE_S,
                check_interval_s=self.LEASE_CHECK_S,
            )
            sweeper = ReconciliationSweeper(installer)
            checker = InvariantChecker(sim, interval_s=self.PROBE_S)
            checker.add("link_conservation", link_conservation(net))
            checker.add("two_phase_atomicity", two_phase_atomicity(d.gs, installer))
            checker.add("capacity_safety", capacity_safety(d.gs, installer))
            checker.add(
                "no_orphaned_reservations",
                no_orphaned_reservations(d.gs, installer),
            )
            checker.add("bus_delivery", bus_delivery(d.bus))
            checker.add("lease_safety", lease_safety(monitor))

            def set_loss(probability: float) -> None:
                for a, b in installer.control_pairs:
                    net.set_link_loss(a, b, probability)

            def crash() -> None:
                net.crash_host(installer.gs_host)
                failover.mark_dead(failover.active)

            for window in p["loss_windows"]:
                sim.schedule_at(window["at"], set_loss, window["loss"])
                sim.schedule_at(window["until"], set_loss, 0.0)
            sim.schedule_at(p["crash_at_s"], crash)
            failover.start(horizon)
            sweeper.start(horizon)
            checker.start(horizon)
            lap.setup_s = clock() - start

        done: dict[int, float] = {}
        gave_up: set[int] = set()
        timelines = []

        def submit(entry: dict, due: float, attempt: int) -> None:
            spec = _spec(entry, attempt)

            def finished(timeline) -> None:
                timelines.append(timeline)
                if timeline.completed_at is None:
                    if attempt + 1 < self.MAX_SUBMITS:
                        submit(entry, due, attempt + 1)
                    else:
                        gave_up.add(entry["index"])
                        lap.failures.append(f"{spec.name}: {timeline.failed}")
                    return
                done[entry["index"]] = (timeline.completed_at - due) * 1e3
                if _first_packets(d, entry, spec, lap):
                    live.append(spec.name)
                    _retire_oldest(d, live)

            installer.install(spec, finished)

        with _phase(tracer, "timed"):
            _begin_timed()
            lap.t0 = began = clock()
            for i, entry in enumerate(stream[p["live_chains"]:]):
                if tracer is not None:
                    tracer.op = i
                due = i / p["rate_per_s"]
                net.run(until=due)
                lap.lateness_ms.append((sim.now - due) * 1e3)
                submit(entry, due, 0)
                now = clock()
                lap.op_ms.append((now - began) * 1e3)
                began = now
                lap.attempted += 1
            net.run(until=horizon)
            net.run()
            checker.check_now()
            lap.t1 = clock()
            lap.wall_s = lap.t1 - lap.t0

        for violation in checker.violations:
            lap.failures.append(f"invariant {violation}")
        for detail in network_quiescence(net)():
            lap.failures.append(f"invariant network_quiescence: {detail}")
        for entry in stream[p["live_chains"]:]:
            if entry["index"] not in done and entry["index"] not in gave_up:
                lap.failures.append(f"c{entry['index']}: never completed")
        _end_of_lap_checks(d, lap)

        crash_at = p["crash_at_s"]
        after = [
            t.route_committed_at for t in timelines
            if t.route_committed_at is not None and t.route_committed_at > crash_at
        ]
        lap.sim_latency_ms = [done[k] for k in sorted(done)]
        lap.facts = {
            "carried_fraction": _carried(d.gs),
            "sim_recovery_s": min(after) - crash_at if after else 0.0,
            "sim_now": sim.now,
            "live": len(d.gs.installations),
        }
        lap.counters = {
            **_deployment_counters(d),
            **_stage_ms(timelines),
            "failover.takeovers": failover.takeovers,
            "sweeper.swept": sweeper.stale_reservations_released,
            "sweeper.stalled": sweeper.stalled_installs_aborted,
            "invariants.probes_run": checker.probes_run,
            "protocol.resubmitted": len(timelines) - lap.attempted,
        }
        return lap


class PacketForward:
    name = "packet_forward"
    why = (
        "read side of the installed rules: forwarder, flow table, LB rules, "
        "edge, VNF instances; control plane idle but for sparse rule writes"
    )
    CHAINS = 200
    PACKETS = 10_000
    FLOWS = 1_000
    CHURN_EVERY = 2_500
    #: Shares of first packets of a new flow / established forward; the
    #: rest are reverse packets of established flows.
    NEW, FORWARD = 0.10, 0.60

    def generate(self, seed: int, lap: int = 0, scale: float = 1.0) -> Inputs:
        rng = random.Random(f"packets-{seed}-{lap}")
        chains = _scaled(self.CHAINS, scale, 8)
        packets = _scaled(self.PACKETS, scale, 500)
        flow_cap = _scaled(self.FLOWS, scale, 50)
        churn_every = _scaled(self.CHURN_EVERY, scale, 100)
        churns = packets // churn_every
        stream = _spec_stream(rng, chains + churns)
        live = list(range(chains))
        next_chain = chains
        next_flow: dict[int, int] = {}
        flows: list[tuple[int, int]] = []
        ops: list[tuple] = []
        for n in range(packets):
            if n and n % churn_every == 0:
                gone = live.pop(0)
                live.append(next_chain)
                ops.append(("churn", gone, next_chain))
                next_chain += 1
                flows = [f for f in flows if f[0] != gone]
            draw = rng.random()
            if draw < self.NEW or not flows:
                chain = rng.choice(live)
                flow = (chain, next_flow.get(chain, 0))
                next_flow[chain] = flow[1] + 1
                if len(flows) < flow_cap:
                    flows.append(flow)
                else:
                    flows[rng.randrange(flow_cap)] = flow
                ops.append(("new", *flow))
            elif draw < self.NEW + self.FORWARD:
                ops.append(("forward", *rng.choice(flows)))
            else:
                ops.append(("reverse", *rng.choice(flows)))
        params = {
            "sites": NUM_SITES, "chains": chains, "packets": packets,
            "flow_working_set": flow_cap, "churn_every": churn_every,
            "rng_seed": seed * 1000 + lap,
        }
        digest = _digest([params, stream, ops])
        return Inputs(params, digest, {"stream": stream, "ops": ops})

    def lap(self, inputs: Inputs, tracer=None) -> Lap:
        lap, p = Lap(), inputs.params
        stream, ops = inputs.data["stream"], inputs.data["ops"]
        with _phase(tracer, "setup"):
            start = clock()
            d = build_deployment(p["rng_seed"], installer=False)
            _populate(d, stream[: p["chains"]], lap)
            lap.setup_s = clock() - start

        specs = {e["index"]: _spec(e) for e in stream}
        edges = d.edges
        ingress = {e["index"]: edges[e["ingress"]] for e in stream}
        egress = {e["index"]: edges[e["egress"]] for e in stream}
        flows = {
            (chain, flow): flow_of(chain, flow)
            for kind, chain, flow in ops if kind != "churn"
        }
        sent: list[tuple] = []
        with _phase(tracer, "timed"):
            _begin_timed()
            lap.t0 = clock()
            for i, (kind, chain, flow) in enumerate(ops):
                if tracer is not None:
                    tracer.op = i
                if kind == "churn":
                    # a sparse rule write beside the reads; not an op
                    d.gs.remove_chain(specs[chain].name)
                    d.gs.create_chain(specs[flow])
                    continue
                five_tuple = flows[(chain, flow)]
                lap.attempted += 1
                try:
                    if kind == "reverse":
                        packet = Packet(five_tuple.reversed())
                        began = clock()
                        egress[chain].send_reverse(packet)
                    else:
                        packet = Packet(five_tuple)
                        began = clock()
                        ingress[chain].ingress(packet)
                except ForwardingError as exc:
                    lap.failures.append(f"c{chain} flow {flow} ({kind}): {exc}")
                    continue
                lap.op_ms.append((clock() - began) * 1e3)
                sent.append((kind, chain, flow, packet))
            lap.t1 = clock()
            lap.wall_s = lap.t1 - lap.t0

        first: dict[tuple[int, int], Packet] = {}
        for kind, chain, flow, packet in sent:
            key = (chain, flow)
            if kind == "new":
                first[key] = packet
                problem = check_forward(packet, specs[chain], egress[chain].name)
            elif kind == "forward":
                problem = (
                    None if packet.trace == first[key].trace
                    else f"flow affinity broken: {packet.trace} vs {first[key].trace}"
                )
            else:
                problem = check_reverse(packet, first[key])
            if problem is not None:
                lap.failures.append(f"c{chain} flow {flow} ({kind}): {problem}")
        _end_of_lap_checks(d, lap)
        lap.facts = {
            "carried_fraction": _carried(d.gs),
            "live": len(d.gs.installations),
            "delivered": sum(len(e.delivered) for e in edges.values()),
        }
        lap.counters = _deployment_counters(d)
        return lap


WORKLOADS = {
    w.name: w
    for w in (TeReplan(), FederatedReplan(), ChainInstall(), InstallFaulty(), PacketForward())
}
