"""Scenario bench: multi-tenant Zipf chain mix through the full soak stack.

Drives the ``zipf_mix`` library scenario (tenant popularity follows a
Zipf law, so a few tenants dominate the create stream) against the
monolithic soak deployment with a quiet fault schedule: the measured
cost is pure workload processing -- chain installs through the 2PC
path, removals, and re-demand re-optimizations -- plus the invariant
probes on the simulated clock.  Regressions here mean the scenario
engine, the install path, or the probe cadence got slower.

Every run must stay violation-free; the table reports the op mix the
schedule applied so a generator change that silently shrinks the
workload is visible in review.
"""

from _common import emit, format_table

from repro.chaos import Scenario, SoakConfig, run_soak
from repro.scenarios import generate

SEEDS = (11, 12, 13)
DURATION_S = 16.0


def run_one(seed: int):
    workload = generate("zipf_mix", seed, duration_s=DURATION_S)
    report = run_soak(
        SoakConfig(seed=seed, duration_s=DURATION_S),
        scenario=Scenario(seed=seed, duration_s=DURATION_S, events=[]),
        workload=workload,
    )
    return workload, report


def run_bench():
    return {seed: run_one(seed) for seed in SEEDS}


def test_scenario_zipf_mix(benchmark):
    results = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    rows = []
    for seed, (workload, report) in results.items():
        counts = report.workload_counts
        rows.append((
            seed,
            len(workload.ops),
            report.workload_ops_applied,
            counts.get("created", 0),
            counts.get("create_rejected", 0),
            counts.get("removed", 0),
            len(report.violations),
        ))
        assert report.passed, report.render()
        assert report.workload_digest == workload.digest()
        assert report.workload_ops_applied == len(workload.ops)
        assert counts.get("created", 0) > 0, "zipf mix must install chains"
    emit(
        "scenario_zipf_mix",
        format_table(
            "Scenario -- multi-tenant Zipf mix through the soak stack "
            f"({len(SEEDS)} seeds, {DURATION_S:g}s simulated)",
            ["seed", "scheduled ops", "applied", "created", "rejected",
             "removed", "violations"],
            rows,
            notes=[
                "quiet fault schedule: the measured cost is workload "
                "processing (installs, removals, re-demands) plus "
                "invariant probes",
            ],
        ),
    )
