"""Acceptance tests for the control-fault chaos mode: live 2PC installs
under control-message loss and a mid-install GS crash."""

import json

import pytest

from repro.chaos import ScenarioConfig, ScenarioError, SoakConfig, generate_scenario, run_soak
from repro.federation import FederationChaosConfig

DURATION = 20.0


def soak(seed, **kwargs):
    return run_soak(
        SoakConfig(
            seed=seed,
            duration_s=DURATION,
            control_faults=True,
            **kwargs,
        )
    )


class TestControlScenario:
    def test_control_mix_includes_new_event_kinds(self):
        config = ScenarioConfig(
            duration_s=DURATION,
            control_loss_windows=2,
            gs_crash=True,
        )
        scenario = generate_scenario(
            1, ["A", "B", "C"], [("gw.A", "proxy.B")], config
        )
        counts = scenario.counts()
        assert counts["control_loss"] == 4  # two windows, start + end
        assert counts["gs_crash"] == 1
        crash = next(e for e in scenario.events if e.kind == "gs_crash")
        assert 0.2 * DURATION <= crash.at <= 0.4 * DURATION
        assert crash.target == ("ctrl.gs",)

    def test_control_events_do_not_shift_legacy_prefix(self):
        """Enabling the control knobs appends events; the draws for the
        legacy kinds stay identical, so old seeds keep their schedules."""
        legacy = generate_scenario(
            5, ["A", "B"], [("gw.A", "proxy.B")],
            ScenarioConfig(duration_s=DURATION),
        )
        extended = generate_scenario(
            5, ["A", "B"], [("gw.A", "proxy.B")],
            ScenarioConfig(
                duration_s=DURATION, control_loss_windows=1, gs_crash=True
            ),
        )
        legacy_events = [e for e in legacy.events]
        kept = [
            e for e in extended.events
            if e.kind not in ("control_loss", "gs_crash")
        ]
        assert kept == legacy_events


class TestControlSoak:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_invariant_violations(self, seed):
        report = soak(seed)
        assert report.passed, report.render()
        assert report.violations == []
        # The schedule actually exercised the control plane.
        assert report.event_counts.get("control_loss", 0) > 0
        assert report.event_counts.get("gs_crash", 0) == 1
        assert report.control["gs_crashes"] == 1
        assert report.control["failover_takeovers"] >= 1

    def test_every_install_reaches_a_terminal_state(self):
        report = soak(1)
        assert report.control["installs_submitted"] == 6
        assert (
            report.control["installs_completed"] + report.control["installs_failed"]
            == report.control["installs_submitted"]
        )

    def test_rpc_layer_was_exercised(self):
        report = soak(1)
        assert report.control["rpc_sent"] > 0
        # 20% loss windows across the control links force retransmits.
        assert report.control["rpc_retries"] > 0

    def test_same_seed_replays_byte_identically(self):
        a = soak(2)
        b = soak(2)
        assert json.dumps(a.to_doc(), sort_keys=True) == json.dumps(
            b.to_doc(), sort_keys=True
        )

    def test_different_seeds_differ(self):
        assert soak(1).scenario_digest != soak(2).scenario_digest

    def test_report_document_has_control_section(self):
        doc = soak(1).to_doc()
        control = doc["control"]
        assert control["installs_submitted"] == 6
        for key in (
            "installs_completed", "installs_failed", "deadline_aborts",
            "rpc_sent", "rpc_retries", "rpc_timeouts", "rpc_duplicates",
            "gs_crashes", "failover_takeovers", "stale_reservations_swept",
        ):
            assert key in control


class TestTheFailoverFitsTheRun:
    """A control-fault soak shorter than crash window + lease + renewal
    would end before the standby takes over: its config refuses it."""

    @pytest.mark.parametrize("duration", [12.0, 20.0, 30.0, 40.0, 60.0])
    def test_every_duration_in_use_fits(self, duration):
        SoakConfig(duration_s=duration, control_faults=True)
        FederationChaosConfig(duration_s=duration)

    def test_the_bound_is_crash_window_end_plus_lease_plus_renewal(self):
        SoakConfig(duration_s=9.2, control_faults=True)  # (4 + 1.5) / (1 - 0.4)
        with pytest.raises(ScenarioError, match="at least 9.17"):
            SoakConfig(duration_s=9.1, control_faults=True)
        SoakConfig(duration_s=2.0)  # no crash, no bound
        FederationChaosConfig(duration_s=4.6)  # (2 + 0.5) / (1 - 0.45)
        with pytest.raises(ScenarioError, match="at least 4.55"):
            FederationChaosConfig(duration_s=4.5)
        FederationChaosConfig(duration_s=2.0, coordinator_crash=False)
