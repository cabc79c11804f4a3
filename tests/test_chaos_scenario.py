"""Tests for the seeded scenario generator: reproducibility above all."""

import math

import pytest

from repro.chaos import (
    FaultEvent,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    generate_scenario,
)

SITES = ("A", "B", "C")
PAIRS = (("wan.A", "proxy.B"), ("wan.B", "proxy.C"), ("wan.C", "proxy.A"))


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            FaultEvent(1.0, "meteor_strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioError):
            FaultEvent(-1.0, "link_down", ("a", "b"))

    @pytest.mark.parametrize("at", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, at):
        with pytest.raises(ScenarioError):
            FaultEvent(at, "link_down", ("a", "b"))

    def test_to_doc_round_trippable(self):
        event = FaultEvent(2.5, "link_loss", ("a", "b"), 0.3)
        doc = event.to_doc()
        assert doc == {
            "at": 2.5, "kind": "link_loss", "target": ["a", "b"],
            "value": 0.3,
        }


class TestScenario:
    def test_events_sorted_by_time(self):
        scenario = Scenario(
            seed=0, duration_s=10.0,
            events=[
                FaultEvent(5.0, "link_up", ("a", "b")),
                FaultEvent(1.0, "link_down", ("a", "b")),
            ],
        )
        assert [e.at for e in scenario.events] == [1.0, 5.0]

    def test_counts(self):
        scenario = Scenario(
            seed=0, duration_s=10.0,
            events=[
                FaultEvent(1.0, "link_down", ("a", "b")),
                FaultEvent(2.0, "link_down", ("a", "c")),
                FaultEvent(3.0, "kill_leader"),
            ],
        )
        assert scenario.counts() == {"link_down": 2, "kill_leader": 1}

    @pytest.mark.parametrize("duration", [-5.0, 0.0, math.nan, math.inf])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ScenarioError):
            Scenario(seed=0, duration_s=duration)


class TestGenerateScenario:
    def test_same_seed_byte_identical(self):
        a = generate_scenario(42, SITES, PAIRS)
        b = generate_scenario(42, SITES, PAIRS)
        assert a.to_json() == b.to_json()
        assert a.digest() == b.digest()

    def test_distinct_seeds_differ(self):
        digests = {
            generate_scenario(seed, SITES, PAIRS).digest()
            for seed in range(10)
        }
        assert len(digests) == 10

    def test_default_mix_present(self):
        counts = generate_scenario(1, SITES, PAIRS).counts()
        assert counts["link_down"] == 3
        assert counts["link_up"] == 3
        assert counts["fail_site"] == 1
        assert counts["restore_site"] == 1
        assert counts["crash_host"] == 1
        assert counts["restart_host"] == 1
        assert counts["kill_leader"] == 1
        assert counts["link_loss"] == 2  # on + off per window
        assert counts["link_degrade"] == 2

    def test_events_inside_middle_window(self):
        scenario = generate_scenario(7, SITES, PAIRS)
        for event in scenario.events:
            assert 0.1 * 60.0 <= event.at <= 0.9 * 60.0

    def test_heal_follows_fault(self):
        """Every down/crash/outage has its matching heal later on."""
        scenario = generate_scenario(3, SITES, PAIRS)
        pairs = {
            "link_down": "link_up",
            "crash_host": "restart_host",
            "fail_site": "restore_site",
        }
        for fault_kind, heal_kind in pairs.items():
            faults = [e for e in scenario.events if e.kind == fault_kind]
            heals = {
                e.target: e.at for e in scenario.events
                if e.kind == heal_kind
            }
            for fault in faults:
                assert fault.target in heals
                assert heals[fault.target] >= fault.at

    def test_partition_opt_in(self):
        config = ScenarioConfig(partition=True)
        counts = generate_scenario(1, SITES, PAIRS, config).counts()
        assert counts["partition"] == 1
        assert counts["heal_partition"] == 1
        default = generate_scenario(1, SITES, PAIRS).counts()
        assert "partition" not in default

    def test_proxy_crash_targets_proxy_host(self):
        scenario = generate_scenario(5, SITES, PAIRS)
        crash = next(e for e in scenario.events if e.kind == "crash_host")
        assert crash.target[0].startswith("proxy.")

    def test_no_wan_pairs_skips_link_events(self):
        counts = generate_scenario(1, SITES, ()).counts()
        assert "link_down" not in counts
        assert counts["fail_site"] == 1

    def test_validation(self):
        with pytest.raises(ScenarioError):
            generate_scenario(1, (), PAIRS)
        with pytest.raises(ScenarioError):
            generate_scenario(1, SITES, PAIRS, ScenarioConfig(duration_s=0))
