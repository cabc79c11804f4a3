"""End-to-end fuzzer: determinism, replay, and the planted self-test.

The planted self-test is the proof the whole pipeline is non-vacuous:
a violation is planted (a redemand surge past the planted probe's
threshold), the probes must flag it, and the minimizer must isolate it
to a tiny fraction of the schedule -- deterministically.
"""

import json
import pathlib

import pytest

from repro.scenarios import (
    FuzzCase,
    FuzzConfig,
    build_case,
    build_planted_case,
    replay_case,
    run_case_mono,
    run_fuzz,
)

BASELINES = pathlib.Path(__file__).parent.parent / "benchmarks" / "baselines"

SMALL = dict(cases=2, duration_s=12.0)


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        a = run_fuzz(FuzzConfig(seed=1, **SMALL))
        b = run_fuzz(FuzzConfig(seed=1, **SMALL))
        assert a.to_json() == b.to_json()
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        a = run_fuzz(FuzzConfig(seed=1, cases=1, duration_s=12.0))
        b = run_fuzz(FuzzConfig(seed=2, cases=1, duration_s=12.0))
        assert a.digest() != b.digest()

    def test_case_generation_deterministic(self):
        config = FuzzConfig(seed=3, **SMALL)
        a = build_case(config, 0)
        b = build_case(config, 0)
        assert a.composed.digest() == b.composed.digest()
        assert a.to_doc() == b.to_doc()

    def test_committed_known_good_reproduces(self):
        committed = json.loads(
            (BASELINES / "fuzz_known_good.json").read_text()
        )
        report = run_fuzz(FuzzConfig(
            seed=committed["seed"],
            cases=committed["cases"],
            duration_s=committed["duration_s"],
            stacks=tuple(committed["stacks"]),
        ))
        assert report.known_good_doc() == committed, (
            "generated schedules or case outcomes changed; regenerate "
            "benchmarks/baselines/fuzz_known_good.json via "
            "python -m repro fuzz --write-known-good"
        )


class TestSmallSeedsGreen:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seed_green(self, seed):
        report = run_fuzz(FuzzConfig(seed=seed, **SMALL))
        assert report.passed, report.render()
        assert report.cases_run == 2


class TestPlantedSelfTest:
    def test_planted_violation_found_and_minimized(self):
        report = run_fuzz(FuzzConfig(seed=1, cases=1, duration_s=12.0,
                                     plant=True))
        assert report.planted
        assert report.passed, report.render()  # planted semantics: must FAIL
        case = report.cases[0]
        assert not case.passed
        minimized = case.minimized
        assert minimized is not None
        # Acceptance: the minimal repro is <= 25% of the schedule.
        assert minimized["items"] <= 0.25 * minimized["original_items"], (
            f"minimizer too weak: {minimized['items']} of "
            f"{minimized['original_items']} items"
        )
        # It actually isolates the single planted op.
        assert minimized["items"] == 1
        assert minimized["workload_ops"] == 1
        assert minimized["fault_events"] == 0
        assert minimized["one_minimal"]

    def test_planted_minimization_deterministic(self):
        config = FuzzConfig(seed=2, cases=1, duration_s=12.0, plant=True)
        a = run_fuzz(config)
        b = run_fuzz(config)
        assert a.cases[0].minimized["digest"] == b.cases[0].minimized["digest"]
        assert a.to_json() == b.to_json()

    def test_minimized_repro_replays_and_still_violates(self):
        report = run_fuzz(FuzzConfig(seed=1, cases=1, duration_s=12.0,
                                     plant=True))
        minimized = report.cases[0].minimized
        replayed = replay_case(FuzzCase.from_doc(minimized["schedule"]))
        assert not replayed.passed
        assert replayed.schedule_digest == minimized["digest"]

    def test_planted_case_violates_on_mono(self):
        config = FuzzConfig(seed=1, cases=1, duration_s=12.0, plant=True)
        case = build_planted_case(config, 0)
        result = run_case_mono(case)
        assert not result.passed
        assert any("planted" in v["invariant"] for v in result.violations)


class TestReplay:
    def test_full_case_replays_identically(self):
        report = run_fuzz(FuzzConfig(seed=1, cases=1, duration_s=12.0))
        case = report.cases[0]
        replayed = replay_case(FuzzCase.from_doc(case.schedule_doc))
        assert replayed.schedule_digest == case.schedule_digest
        assert replayed.passed == case.passed
        assert [s.to_doc() for s in replayed.stacks] == [
            s.to_doc() for s in case.stacks
        ]


class TestBudget:
    def test_zero_budget_still_runs_first_case(self):
        report = run_fuzz(FuzzConfig(seed=1, cases=5, duration_s=12.0,
                                     budget_s=0.0))
        assert report.cases_run == 1
        assert report.budget_exhausted

