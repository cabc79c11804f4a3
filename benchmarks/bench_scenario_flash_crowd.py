"""Scenario bench: flash crowd composed with link flaps.

The ``flash_crowd`` library scenario slams a burst of new chains onto
one hot egress inside a short ramp window; this bench composes it with
a seeded schedule of WAN link flaps so the install burst lands while
the bus is rerouting around failures -- the worst-case moment for the
2PC install path.  The measured cost covers schedule generation,
composition, fault injection, the install burst, and continuous
invariant probing.

Every run must stay violation-free even with the flaps; a regression
here usually means schedule composition or the install path under
degraded links got slower.
"""

from _common import emit, format_table

from repro.bus.bus import proxy_name
from repro.chaos import ScenarioConfig, SoakConfig, generate_scenario, run_soak
from repro.chaos.runner import SITES
from repro.scenarios import generate

SEEDS = (21, 22, 23)
DURATION_S = 16.0


def fault_schedule(seed: int):
    wan_pairs = [
        (f"wan.{a}", proxy_name(b)) for a in SITES for b in SITES if a != b
    ]
    return generate_scenario(
        seed, SITES, wan_pairs,
        ScenarioConfig(
            duration_s=DURATION_S, link_flaps=2, loss_windows=0,
            degrade_windows=0, site_outage=False, proxy_crash=False,
            leader_kill=False,
        ),
    )


def run_one(seed: int):
    workload = generate("flash_crowd", seed, duration_s=DURATION_S)
    report = run_soak(
        SoakConfig(seed=seed, duration_s=DURATION_S),
        scenario=fault_schedule(seed),
        workload=workload,
    )
    return workload, report


def run_bench():
    return {seed: run_one(seed) for seed in SEEDS}


def test_scenario_flash_crowd(benchmark):
    results = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    rows = []
    for seed, (workload, report) in results.items():
        counts = report.workload["counts"]
        rows.append((
            seed,
            len(workload.ops),
            counts.get("created", 0),
            counts.get("create_rejected", 0),
            counts.get("removed", 0),
            len(report.events_applied),
            len(report.violations),
        ))
        assert report.passed, report.render()
        assert report.workload["digest"] == workload.digest()
        assert counts.get("created", 0) > 0, "flash crowd must install chains"
        assert report.events_applied, "fault schedule must fire"
    emit(
        "scenario_flash_crowd",
        format_table(
            "Scenario -- flash crowd under WAN link flaps "
            f"({len(SEEDS)} seeds, {DURATION_S:g}s simulated)",
            ["seed", "scheduled ops", "created", "rejected", "removed",
             "faults applied", "violations"],
            rows,
            notes=[
                "the install burst lands while links flap: worst case "
                "for the 2PC install path; must stay violation-free",
            ],
        ),
    )
