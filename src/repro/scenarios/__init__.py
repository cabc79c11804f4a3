"""Workload-scenario library and seeded scenario fuzzer.

Where :mod:`repro.chaos` schedules *faults* (link flaps, outages,
crashes), this package schedules *workload*: seeded, digested
schedules of chain create / remove / re-demand operations drawn from
a library of named scenarios -- diurnal multi-region waves, flash
crowds, regional evacuation cascades, mobile-CPE site churn,
multi-tenant Zipf mixes, and an adversarial worst-case matrix.  A
workload schedule composes with a fault schedule into one
:class:`~repro.scenarios.schedule.ComposedSchedule` whose SHA-256
digest identifies the whole run.

The fuzzer (``python -m repro fuzz --seed N``) samples random
compositions, plays them against both the monolithic soak stack and
the federated coordinator with invariant probes throughout, and
delta-debugs any violating schedule down to a minimal, replayable
repro (:mod:`repro.scenarios.minimize`).

Quick start::

    from repro.scenarios import FuzzConfig, run_fuzz
    report = run_fuzz(FuzzConfig(seed=1, cases=2, duration_s=12.0))
    assert report.passed, report.render()
"""

from repro.scenarios.apply import WorkloadEngine
from repro.scenarios.fuzzer import (
    PLANT_THRESHOLD,
    STACKS,
    FuzzCase,
    FuzzConfig,
    build_case,
    build_planted_case,
    minimize_case,
    replay_case,
    run_case,
    run_case_federation,
    run_case_mono,
    run_fuzz,
)
from repro.scenarios.library import (
    SCENARIO_KINDS,
    WorkloadContext,
    adversarial_matrix,
    diurnal_wave,
    evacuation_cascade,
    flash_crowd,
    generate,
    site_churn,
    zipf_mix,
)
from repro.scenarios.minimize import MinimizeResult, ddmin
from repro.scenarios.report import CaseResult, FuzzReport, StackResult
from repro.scenarios.schedule import (
    WORKLOAD_OPS,
    ComposedSchedule,
    ScheduleError,
    WorkloadOp,
    WorkloadSchedule,
    compose,
    merge_workloads,
)

__all__ = [
    "PLANT_THRESHOLD",
    "SCENARIO_KINDS",
    "STACKS",
    "WORKLOAD_OPS",
    "CaseResult",
    "ComposedSchedule",
    "FuzzCase",
    "FuzzConfig",
    "FuzzReport",
    "MinimizeResult",
    "ScheduleError",
    "StackResult",
    "WorkloadContext",
    "WorkloadEngine",
    "WorkloadOp",
    "WorkloadSchedule",
    "adversarial_matrix",
    "build_case",
    "build_planted_case",
    "compose",
    "ddmin",
    "diurnal_wave",
    "evacuation_cascade",
    "flash_crowd",
    "generate",
    "merge_workloads",
    "minimize_case",
    "replay_case",
    "run_case",
    "run_case_federation",
    "run_case_mono",
    "run_fuzz",
    "site_churn",
    "zipf_mix",
]
