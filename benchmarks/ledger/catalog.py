"""The metric catalogue: every name, unit, direction and bound.

``BENCHMARK.json`` at the repository root lists the same names (the
smoke test checks the two agree).  End-to-end metrics come from untraced
laps; per-layer metrics from one traced lap, each as a formula over the
tracer's span aggregates (``x.t``), the lap's exact program counters
(``x.count``) and the lap itself.

Three figures the issue asked for as end-to-end metrics are per-layer
here, with their bounds kept in ``LEDGER_BOUNDS`` for ``run.py --agree``:
the driver requires every end-to-end metric from every workload, and
simulated install latency / recovery time exist on the install workloads
only.  ``failed_share`` became ``success_share`` (1 - failed share)
because an end-to-end metric may never read 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(q * n))."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_wall_ms_p50", "ms", "lower", 0.25),
    ("op_wall_ms_p95", "ms", "lower", 0.25),
    ("carried_fraction", "ratio", "higher", 0.005),
    ("success_share", "ratio", "higher", 0.005),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Bounds ``--agree`` applies to per-layer metrics that are end-to-end
#: in spirit (deterministic, so any drift at all is a real change).
LEDGER_BOUNDS = {
    "sim_latency_ms_p50": ("lower", 0.01),
    "sim_latency_ms_p99": ("lower", 0.01),
    "sim_recovery_s": ("lower", 0.01),
}

#: Functions of the seed alone: ``--selfcheck`` and ``--agree`` require
#: these to be bit-identical between runs of one seed.
EXACT = (
    "carried_fraction", "success_share", "sim_latency_ms_p50",
    "sim_latency_ms_p99", "sim_recovery_s", "simnet.events",
    "resilience.rpc.sent_per_install", "bus.published", "core.lp.calls",
)


@dataclass
class TracedLap:
    """What the per-layer formulas read."""

    t: object  # spans.Tracer
    lap: object  # workloads.Lap
    untraced_wall_s: float

    @property
    def installs(self) -> int:
        """Bus-driven installs started, resubmissions included."""
        return self.t.calls("controller.protocol:install")

    def count(self, key: str) -> float:
        """One of the lap's exact program counters (0 if the workload
        never touches that layer)."""
        return self.lap.counters.get(key, 0)


#: Calls made while this span is open are counted apart (what a standby
#: controller re-drives and aborts when it takes over).
TAKEOVER = "resilience.failover:take_over"

#: name, unit, better, formula
PER_LAYER = [
    ("sim_latency_ms_p50", "ms", "lower", lambda x: percentile(x.lap.sim_latency_ms, 0.50)),
    ("sim_latency_ms_p99", "ms", "lower", lambda x: percentile(x.lap.sim_latency_ms, 0.99)),
    ("sim_recovery_s", "s", "lower", lambda x: x.lap.facts.get("sim_recovery_s", 0.0)),
    ("topology.build_s", "s", "lower", lambda x: x.t.layer_s("topology")),
    ("core.model.columns_s", "s", "lower", lambda x: x.t.self_s(
        "core.model:substrate_columns", "core.model:chain_columns",
        "core.model:variable_columns")),
    ("core.model.digest_s", "s", "lower", lambda x: x.t.self_s(
        "core.model:digest", "core.model:structure_digest")),
    ("core.model.mutations", "count", "lower", lambda x: x.t.calls(
        "core.model:add_chain", "core.model:remove_chain")),
    ("core.lp.self_s", "s", "lower", lambda x: x.t.layer_s("core.lp")),
    ("core.lp.calls", "count", "lower", lambda x: x.t.calls("core.lp:solve_chain_routing_lp")),
    ("core.lp.structure_hit_ratio", "ratio", "higher", lambda x: ratio(
        x.count("lp.structure_hits"),
        x.count("lp.structure_hits") + x.count("lp.structure_rebuilds"))),
    ("core.highs.solve_s", "s", "lower", lambda x: x.t.layer_s("core.highs")),
    ("core.highs.calls", "count", "lower", lambda x: x.t.calls("core.highs:solve")),
    ("core.dp.route_s", "s", "lower", lambda x: x.t.layer_s("core.dp")),
    ("core.dp.calls", "count", "lower", lambda x: x.t.calls(
        "core.dp:route_chains_dp", "core.dp:route")),
    ("scale.partition.plan_s", "s", "lower", lambda x: x.t.layer_s("scale.partition")),
    ("scale.partition.calls", "count", "lower", lambda x: x.t.calls(
        "scale.partition:partition_chains")),
    ("scale.farm.self_s", "s", "lower", lambda x: x.t.layer_s("scale.farm")),
    # max_workers=1 solves every cache miss in line, so partition
    # solves are the misses.
    ("scale.farm.partition_solves", "count", "lower", lambda x: x.count("cache.misses")),
    ("scale.farm.solved_per_resolve", "ratio", "lower", lambda x: ratio(
        x.count("cache.misses") - x.count("cache.misses_cold"),
        x.t.calls("scale.farm:resolve"))),
    ("scale.cache.hit_ratio", "ratio", "higher", lambda x: ratio(
        x.count("cache.hits"), x.count("cache.hits") + x.count("cache.misses"))),
    ("scale.cache.lookups", "count", "lower", lambda x: x.t.calls("scale.cache:get")),
    ("federation.shard.build_s", "s", "lower", lambda x: x.t.layer_s("federation.shard")),
    ("federation.coordinator.submit_self_s", "s", "lower", lambda x: x.t.self_s(
        "federation.coordinator:submit", "federation.coordinator:remove")),
    ("federation.coordinator.plan_self_s", "s", "lower", lambda x: x.t.self_s(
        "federation.coordinator:plan_all")),
    ("federation.coordinator.resolve_self_s", "s", "lower", lambda x: x.t.self_s(
        "federation.coordinator:resolve")),
    ("federation.coordinator.cross_shard_ratio", "ratio", "lower",
     lambda x: x.count("cross_shard_ratio")),
    # A rejected 2PC round stops at its first refused prepare.
    ("federation.coordinator.attempts_per_cross_install", "ratio", "lower", lambda x: ratio(
        x.count("cross_installed") + x.t.returned_false("federation.regional:prepare"),
        x.count("cross_installed"))),
    ("federation.regional.twopc_s", "s", "lower", lambda x: x.t.self_s(
        "federation.regional:prepare", "federation.regional:commit",
        "federation.regional:abort", "federation.regional:teardown")),
    ("federation.regional.plan_s", "s", "lower", lambda x: x.t.self_s(
        "federation.regional:plan", "federation.regional:reoptimize")),
    ("federation.regional.prepare_reject_ratio", "ratio", "lower", lambda x: ratio(
        x.t.returned_false("federation.regional:prepare"),
        x.t.calls("federation.regional:prepare"))),
    ("controller.gs.create_chain_s", "s", "lower", lambda x: x.t.self_s(
        "controller.global_switchboard:create_chain")),
    ("controller.gs.remove_chain_s", "s", "lower", lambda x: x.t.self_s(
        "controller.global_switchboard:remove_chain")),
    ("controller.protocol.self_s", "s", "lower", lambda x: x.t.layer_s("controller.protocol")),
    ("controller.protocol.sim_resolve_ms", "ms", "lower",
     lambda x: x.count("protocol.sim_resolve_ms")),
    ("controller.protocol.sim_twopc_ms", "ms", "lower",
     lambda x: x.count("protocol.sim_twopc_ms")),
    ("controller.protocol.sim_publish_ms", "ms", "lower",
     lambda x: x.count("protocol.sim_publish_ms")),
    ("controller.protocol.sim_configure_ms", "ms", "lower",
     lambda x: x.count("protocol.sim_configure_ms")),
    ("controller.protocol.deadline_aborts", "count", "lower",
     lambda x: x.count("protocol.deadline_aborts")),
    ("controller.protocol.aborted", "count", "lower", lambda x: x.count("protocol.aborted")),
    ("controller.local.install_rules_s", "s", "lower",
     lambda x: x.t.layer_s("controller.local_switchboard")),
    ("controller.local.rules_installed", "count", "lower", lambda x: x.t.calls(
        "controller.local_switchboard:install_edge_rule",
        "controller.local_switchboard:install_chain_rules")),
    ("controller.replication.write_s", "s", "lower",
     lambda x: x.t.layer_s("controller.replication")),
    ("controller.replication.writes_per_install", "ratio", "lower", lambda x: ratio(
        x.t.calls("controller.replication:put", "controller.replication:delete"),
        x.installs)),
    ("bus.self_s", "s", "lower", lambda x: x.t.layer_s("bus")),
    ("bus.published", "count", "lower", lambda x: x.count("bus.published")),
    ("bus.wan_msgs_per_install", "ratio", "lower", lambda x: ratio(
        x.count("bus.wan_messages"), x.installs)),
    ("bus.wan_drops", "count", "lower", lambda x: x.count("bus.wan_drops")),
    ("simnet.dispatch_self_s", "s", "lower", lambda x: x.t.layer_s("simnet")),
    ("simnet.events", "count", "lower", lambda x: x.count("simnet.events")),
    ("simnet.events_per_s", "1/s", "higher", lambda x: ratio(
        x.count("simnet.events"), x.untraced_wall_s)),
    ("simnet.events_per_install", "ratio", "lower", lambda x: ratio(
        x.count("simnet.events"), x.installs)),
    ("simnet.link_drops", "count", "lower", lambda x: x.count("simnet.link_drops")),
    ("resilience.rpc.self_s", "s", "lower", lambda x: x.t.layer_s("resilience.rpc")),
    ("resilience.rpc.sent_per_install", "ratio", "lower", lambda x: ratio(
        x.count("rpc.sent"), x.installs)),
    ("resilience.rpc.retransmit_ratio", "ratio", "lower", lambda x: ratio(
        x.count("rpc.retries"), x.count("rpc.sent"))),
    ("resilience.rpc.duplicates", "count", "lower", lambda x: x.count("rpc.duplicates")),
    ("resilience.rpc.timeouts", "count", "lower", lambda x: x.count("rpc.timeouts")),
    ("resilience.failover.takeovers", "count", "lower",
     lambda x: x.count("failover.takeovers")),
    ("resilience.failover.redriven", "count", "lower", lambda x: x.t.within.get(
        (TAKEOVER, "controller.protocol:redrive"), 0)),
    ("resilience.failover.aborted", "count", "lower", lambda x: x.t.within.get(
        (TAKEOVER, "controller.protocol:abort_install"), 0)),
    ("resilience.sweeper.swept", "count", "lower", lambda x: x.count("sweeper.swept")),
    ("chaos.invariants.probe_s", "s", "lower", lambda x: x.t.layer_s("chaos.invariants")),
    ("chaos.invariants.probes_run", "count", "higher",
     lambda x: x.count("invariants.probes_run")),
    ("vnf.twopc_s", "s", "lower", lambda x: x.t.self_s(
        "vnf:prepare", "vnf:commit", "vnf:abort", "vnf:teardown", "vnf:release")),
    ("vnf.prepare_reject_ratio", "ratio", "lower", lambda x: ratio(
        x.t.returned_false("vnf:prepare"), x.t.calls("vnf:prepare"))),
    ("vnf.process_s", "s", "lower", lambda x: x.t.self_s("vnf:process")),
    ("edge.install_chain_s", "s", "lower", lambda x: x.t.self_s(
        "edge:install_chain", "edge:remove_chain")),
    ("edge.ingress_self_s", "s", "lower", lambda x: x.t.self_s(
        "edge:ingress", "edge:send_reverse", "edge:receive_from_chain")),
    ("dataplane.forward_self_s", "s", "lower", lambda x: x.t.self_s(
        "dataplane:send_forward", "dataplane:send_reverse",
        "dataplane:lookup", "dataplane:insert")),
    ("dataplane.flowtable_hit_ratio", "ratio", "higher", lambda x: ratio(
        x.count("flowtable.hits"),
        x.count("flowtable.hits") + x.count("flowtable.misses"))),
    ("dataplane.flowtable_inserts", "count", "lower",
     lambda x: x.count("flowtable.inserts")),
    ("dataplane.hops_per_packet", "ratio", "lower", lambda x: ratio(
        x.count("dataplane.hops"),
        x.t.calls("dataplane:send_forward", "dataplane:send_reverse"))),
    ("dataplane.rule_installs", "count", "lower", lambda x: x.t.calls(
        "dataplane:install_rule")),
    ("dataplane.drops", "count", "lower", lambda x: x.count("dataplane.drops")),
    ("trace.attributed_share", "ratio", "higher", lambda x: ratio(
        sum(x.t.layer_self_s("timed").values()), x.lap.wall_s)),
    ("trace.overhead_ratio", "ratio", "lower", lambda x: ratio(
        x.lap.wall_s, x.untraced_wall_s)),
    ("trace.spans", "count", "lower", lambda x: x.t.count),
]

#: The layers meant to dominate each workload, and the layers each
#: workload is meant to bypass (< 10 % of the timed wall).
DOMINANT = {
    "te_replan": ("core.lp", "core.highs", "core.dp", "core.model"),
    "federated_replan": (
        "scale.partition", "scale.farm", "scale.cache", "federation.shard",
        "federation.coordinator", "federation.regional",
    ),
    "chain_install": ("controller.protocol", "bus", "simnet", "resilience.rpc"),
    "install_faulty": ("controller.protocol", "bus", "simnet", "resilience.rpc"),
    "packet_forward": ("dataplane", "edge"),
}
BYPASSED = {
    "te_replan": (
        DOMINANT["federated_replan"], DOMINANT["chain_install"],
        DOMINANT["packet_forward"],
    ),
    "packet_forward": (DOMINANT["te_replan"], DOMINANT["chain_install"]),
}
