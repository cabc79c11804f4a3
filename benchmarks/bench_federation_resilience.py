"""Federated chaos soak across seeds: partition-tolerant by invariant.

Five distinct seeds each play a generated fault schedule (link flaps, a
coordinator<->region partition, a regional process restart, and a
coordinator crash) against the deployed federation -- primary + standby
coordinator over the quorum store and leader lease, one regional node
per shard -- while the unified probe registry checks ledger
consistency, 2PC atomicity, capacity safety, single-active-coordinator,
and no-lost-queued-request after every event.  The headline numbers are
the resilience costs: how fast the standby recovers the control plane
after the crash, and how much work the degraded/queued paths carried.
"""

from _common import emit, fmt, format_table

from repro.federation import FederationChaosConfig, run_federation_chaos

SEEDS = (1, 2, 3, 4, 5)
DURATION_S = 40.0


def run_soaks():
    reports = []
    for seed in SEEDS:
        reports.append(
            run_federation_chaos(
                FederationChaosConfig(seed=seed, duration_s=DURATION_S)
            )
        )
    return reports


def test_federation_resilience(benchmark):
    reports = benchmark.pedantic(run_soaks, iterations=1, rounds=1)

    rows = []
    for report in reports:
        throughput = report.installed_total / max(
            report.base_installed + report.live_submitted, 1
        )
        recovery_s = report.failover["recovery_s"]
        rows.append(
            (
                report.seed,
                report.scenario_digest[:12],
                sum(report.event_counts.values()),
                report.probes_run,
                fmt(recovery_s, 3) if recovery_s else "-",
                report.queued["peak"],
                report.degraded_admissions,
                report.reconciliations,
                fmt(100 * throughput, 0) + "%",
                len(report.violations),
            )
        )
    emit(
        "federation_resilience",
        format_table(
            "Federated chaos soak -- failover, ledgers, degraded regions",
            ["seed", "schedule digest", "events", "probes",
             "recovery (s)", "queue peak", "degraded", "reconciles",
             "installed", "violations"],
            rows,
            notes=[
                "each seed mixes link flaps, a coordinator<->region "
                "partition, a regional restart, and a coordinator crash",
                "recovery = crash-to-takeover time of the standby "
                "coordinator (lease expiry + WAL settle)",
                "installed = chains with a terminal 'installed' outcome "
                "over all base + live submissions",
            ],
        ),
    )

    for report in reports:
        assert report.passed, report.render()
        # The schedule ran: the crash happened and the standby took over.
        assert report.failover["coordinator_crashes"] == 1
        assert report.failover["takeovers"] >= 1
        assert report.failover["recovery_s"] is not None
        # Nothing queued was lost: the queue fully drained by the end.
        assert report.queued["final"] == 0
        # Reconciliation ran (heal + takeover both trigger it).
        assert report.reconciliations > 0
    # Distinct seeds produce distinct schedules.
    digests = {report.scenario_digest for report in reports}
    assert len(digests) == len(SEEDS)
