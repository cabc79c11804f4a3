"""Chaos soak across seeds: invariant violations must stay at zero.

Five distinct seeds each play a generated fault schedule (link flaps,
loss and degradation windows, one site outage, one bus-proxy crash, one
controller leader kill) against a full deployment while the invariant
checker probes continuously.  The assertion is the acceptance bar of the
chaos subsystem: zero violations on every seed, full recovery of the
site outage (capacity is provisioned for it), and honest accounting
(every fault-induced loss shows up in the drop-reason tally).
"""

from _common import emit, fmt, format_table

from repro.chaos import SoakConfig, run_soak

SEEDS = (1, 2, 3, 4, 5)
DURATION_S = 30.0


def run_soaks():
    reports = []
    for seed in SEEDS:
        reports.append(run_soak(SoakConfig(seed=seed, duration_s=DURATION_S)))
    return reports


def test_chaos_soak(benchmark):
    reports = benchmark.pedantic(run_soaks, iterations=1, rounds=1)

    rows = []
    for report in reports:
        fault_drops = sum(report.drop_reasons.values())
        site_recovery = [r for r in report.recovery if r["kind"] == "site"]
        recovery = min(
            (r["ratio"] for r in site_recovery), default=1.0
        )
        rows.append(
            (
                report.seed,
                report.scenario_digest[:12],
                sum(report.event_counts.values()),
                report.probes_run,
                fault_drops,
                fmt(100 * recovery, 0) + "%",
                fmt(report.carried_after, 3),
                len(report.violations),
            )
        )
    emit(
        "chaos_soak",
        format_table(
            "Chaos soak -- seeded fault schedules vs system invariants",
            ["seed", "schedule digest", "events", "probes",
             "fault drops", "outage recovery", "carried after",
             "violations"],
            rows,
            notes=[
                "each seed mixes link flaps, loss/degradation windows, a "
                "site outage, a proxy crash, and a leader kill",
                "zero violations = conservation, 2PC atomicity, capacity "
                "safety, bus delivery, and lease safety all held",
            ],
        ),
    )

    for report in reports:
        assert report.passed, report.render()
        # The schedule ran: every kind of fault was applied.
        assert sum(report.event_counts.values()) >= 10
        assert report.leaders_killed == 1
        # Faults really disturbed the system (drops were taken and
        # accounted) and the provisioned headroom absorbed the outage.
        assert sum(report.drop_reasons.values()) > 0
        assert report.carried_after >= 0.999
    # Distinct seeds produce distinct schedules.
    digests = {report.scenario_digest for report in reports}
    assert len(digests) == len(SEEDS)
