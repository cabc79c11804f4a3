"""End-to-end tests for the chaos soak runner.

The headline assertions mirror the subsystem's acceptance criteria:
distinct seeds all complete with zero invariant violations, the same
seed replays byte-identically, and the engine really applied every kind
of fault in the schedule.
"""

import json

import pytest

from repro.chaos import (
    ScenarioConfig,
    SoakConfig,
    generate_scenario,
    run_soak,
)
from repro.cli import main as cli_main

DURATION = 20.0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_soak_zero_violations_across_seeds(seed):
    report = run_soak(SoakConfig(seed=seed, duration_s=DURATION))
    assert report.passed, report.render()
    # The schedule actually ran, end to end.
    applied = {event["kind"] for event in report.events_applied}
    assert {"link_down", "link_up", "fail_site", "restore_site",
            "crash_host", "restart_host", "kill_leader"} <= applied
    # Faults disturbed the system and were accounted.
    assert sum(report.drop_reasons.values()) > 0
    assert report.lease["killed"] == 1
    assert report.lease["transitions"] >= 1
    # The provisioned headroom absorbs a single-site outage.
    assert report.carried_after >= 0.999


def test_replay_is_byte_identical():
    a = run_soak(SoakConfig(seed=9, duration_s=DURATION))
    b = run_soak(SoakConfig(seed=9, duration_s=DURATION))
    assert a.to_json() == b.to_json()
    assert a.scenario_digest == b.scenario_digest


def test_distinct_seeds_distinct_schedules():
    digests = {
        run_soak(SoakConfig(seed=s, duration_s=10.0,
                            scenario=ScenarioConfig(
                                duration_s=10.0, site_outage=False,
                                proxy_crash=False))).scenario_digest
        for s in (11, 12, 13)
    }
    assert len(digests) == 3


def test_explicit_scenario_is_replayed():
    config = SoakConfig(seed=4, duration_s=DURATION)
    wan_pairs = [("wan.A", "proxy.B"), ("wan.B", "proxy.C")]
    scenario = generate_scenario(4, ("A", "B", "C", "D"), wan_pairs,
                                 config.scenario_config())
    report = run_soak(config, scenario=scenario)
    assert report.scenario_digest == scenario.digest()
    assert report.passed, report.render()


def test_partition_scenario_passes():
    config = SoakConfig(
        seed=6, duration_s=DURATION,
        scenario=ScenarioConfig(duration_s=DURATION, partition=True),
    )
    report = run_soak(config)
    assert report.passed, report.render()
    assert report.event_counts.get("partition") == 1
    assert report.drop_reasons.get("partition", 0) >= 0


def test_site_outage_recovery_reported():
    report = run_soak(SoakConfig(seed=1, duration_s=DURATION))
    site_recoveries = [r for r in report.recovery if r["kind"] == "site"]
    assert len(site_recoveries) == 1
    assert site_recoveries[0]["ratio"] == pytest.approx(1.0)


def test_unexpected_exception_on_restore_path_escapes(monkeypatch):
    """The re-extension after ``restore_site`` tolerates an
    ``InstallationError`` only: a planted ``RuntimeError`` escapes
    ``run_soak`` and reaches the fuzzer as a ``crash`` finding."""
    from repro.controller import GlobalSwitchboard
    from repro.scenarios.fuzzer import FuzzConfig, build_case, run_case_mono

    def planted(self, chain_name):
        raise RuntimeError("planted in extend_chain")

    monkeypatch.setattr(GlobalSwitchboard, "extend_chain", planted)
    with pytest.raises(RuntimeError, match="planted in extend_chain"):
        run_soak(SoakConfig(seed=1, duration_s=DURATION))

    # Case 0 of fuzz seed 1 schedules a site outage over installed chains.
    case = build_case(FuzzConfig(seed=1, duration_s=12.0), 0)
    assert "restore_site" in {e.kind for e in case.composed.faults.events}
    result = run_case_mono(case)
    assert [v["invariant"] for v in result.violations] == ["crash"]
    assert "planted in extend_chain" in result.violations[0]["detail"]


def test_proxy_crash_turns_publishes_into_drops():
    """While a proxy is down, publishes to it are accounted drops, not
    exceptions -- the strict=False bus path."""
    report = run_soak(SoakConfig(seed=1, duration_s=DURATION))
    assert report.event_counts["crash_host"] == 1
    assert report.drop_reasons.get("dst_down", 0) > 0
    assert report.bus["delivered"] < report.bus["published"] * 3  # fan-out cap


def test_report_document_shape():
    report = run_soak(SoakConfig(seed=2, duration_s=10.0))
    doc = json.loads(report.to_json())
    assert doc["seed"] == 2
    assert doc["passed"] is True
    assert doc["violations"] == []
    assert doc["probes_run"] > 0
    assert set(doc["bus"]) == {"published", "delivered", "wan_drops"}
    assert doc["scenario_digest"] == report.scenario_digest
    # render() must not blow up and must carry the verdict.
    assert "PASS" in report.render()


class TestCli:
    def test_chaos_command_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli_main([
            "chaos", "--seed", "3", "--duration", "10", "--json",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 3 and doc["passed"] is True
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_chaos_command_human_output(self, capsys):
        code = cli_main(["chaos", "--seed", "1", "--duration", "10"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestDispatchTables:
    """Each engine plays an event through one ``{kind: handler}`` table,
    and refuses a kind the table lacks before anything is scheduled."""

    def test_federation_engine_refuses_an_unhandled_kind_at_schedule(self):
        from types import SimpleNamespace

        from repro.chaos import FaultEvent, Scenario, ScenarioError
        from repro.federation.chaos import FederationChaosEngine
        from repro.simnet.events import Simulator
        from repro.simnet.network import SimNetwork

        sim = Simulator()
        engine = FederationChaosEngine(SimpleNamespace(sim=sim, net=SimNetwork(sim)))
        scenario = Scenario(seed=1, duration_s=10.0, events=[
            FaultEvent(1.0, "crash_host", ("r0",)),
            FaultEvent(2.0, "fail_site", ("A",)),
        ])
        with pytest.raises(ScenarioError, match="fail_site"):
            engine.schedule(scenario)
        assert sim.pending == 0

    def test_tables_name_only_known_kinds(self):
        from repro.chaos.runner import ChaosEngine, FaultEngine
        from repro.chaos.scenario import EVENT_KINDS
        from repro.federation.chaos import FederationChaosEngine
        from repro.scenarios.apply import WorkloadEngine
        from repro.scenarios.schedule import WORKLOAD_OPS

        for engine in (FaultEngine, ChaosEngine, FederationChaosEngine):
            assert set(engine.HANDLERS) <= set(EVENT_KINDS), engine
        # The monolithic soak plays every fault kind, the workload
        # engine every op.
        assert set(ChaosEngine.HANDLERS) == set(EVENT_KINDS)
        assert set(WorkloadEngine.HANDLERS) == set(WORKLOAD_OPS)
