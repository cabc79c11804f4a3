"""Tests for the partition-tolerant federation deployment: coordinator
failover from the durable install log, degraded-mode regional autonomy, and the
seeded federated chaos soak."""

import types

import pytest

from repro.chaos import SoakConfig
from repro.chaos import run_soak as run_chaos_soak
from repro.cli import main
from repro.controller import twopc
from repro.federation import (
    FederationChaosConfig,
    build_federation_deployment,
    check_atomicity,
    check_ledger_consistency,
    generate_federation_scenario,
    run_federation_chaos,
)


def small_config(**overrides):
    defaults = dict(
        seed=3,
        duration_s=30.0,
        pops=12,
        regions=3,
        chains=24,
        locality=0.5,
        lease_duration_s=1.0,
        check_interval_s=0.25,
        install_deadline_s=3.0,
    )
    defaults.update(overrides)
    return FederationChaosConfig(**defaults)


def quiet_config(**overrides):
    """A deployment config with no scheduled faults (tests inject their
    own)."""
    defaults = dict(
        link_flaps=0,
        partition=False,
        coordinator_crash=False,
        region_restart=False,
    )
    defaults.update(overrides)
    return small_config(**defaults)


def cross_shard_chain(d, config):
    """A live cross-shard chain that installs cleanly absent faults
    (learned from a no-fault rehearsal of the same seeded deployment,
    so a 'rejected' in the real run can only come from the fault)."""
    rehearsal = build_federation_deployment(config)
    candidates = []
    for chain in rehearsal.live_chains:
        ingress = rehearsal.primary.shard_map.region_of(
            rehearsal.model, chain.ingress
        )
        egress = rehearsal.primary.shard_map.region_of(
            rehearsal.model, chain.egress
        )
        if ingress != egress:
            rehearsal.region_nodes[ingress].submit(chain)
            candidates.append((chain.name, ingress))
    rehearsal.net.run(until=10.0)
    for name, ingress in candidates:
        if rehearsal.region_nodes[ingress].outcomes.get(name) == "installed":
            chain = next(c for c in d.live_chains if c.name == name)
            return chain, ingress
    pytest.skip("workload produced no cleanly installable cross chain")


def ledger_occupancy(regional):
    """Total committed+prepared border occupancy, per ledger."""
    return {
        name: (
            sum(ledger.committed.values()),
            sum(ledger.prepared.values()),
        )
        for name, ledger in regional.ledgers.items()
    }


class TestPartitionMidPrepare:
    def test_partition_mid_prepare_aborts_cleanly_then_drains_on_heal(self):
        """A region partitioned away mid-prepare: the round aborts with
        zero border-ledger leak, the origin keeps the chain queued, and
        the queue drains once the partition heals."""
        config = quiet_config()
        d = build_federation_deployment(config)
        d.failover.start(until=config.duration_s)
        chain, origin = cross_shard_chain(d, config)
        origin_node = d.region_nodes[origin]

        before = {
            r: ledger_occupancy(d.primary.regionals[r])
            for r in d.region_nodes
        }

        # Submit at t=1 and cut every region off from the coordinators
        # at t=1.01 -- after the submit forwards, before any prepare
        # reply can arrive (one-way coordinator<->region delay is 20ms).
        d.sim.schedule_at(1.0, origin_node.submit, chain)
        d.sim.schedule_at(
            1.01,
            d.net.partition,
            [list(d.failover.candidates), [n.host for n in d.region_nodes.values()]],
        )
        d.net.run(until=10.0)

        # Aborted, not installed: the origin still queues the chain and
        # every ledger is back to its pre-submit occupancy (no leak).
        assert chain.name not in d.primary._cross
        assert chain.name in origin_node.queued()
        for r, node in d.region_nodes.items():
            assert ledger_occupancy(d.primary.regionals[r]) == before[r]
            assert not d.primary.regionals[r].prepared_segments()

        d.net.heal_partition()
        active = d.failover.active
        active.reconcile_all()
        d.net.run(until=config.duration_s)
        d.net.run()

        assert origin_node.outcomes[chain.name] == "installed"
        assert not origin_node.queued()
        assert chain.name in active._cross
        assert check_ledger_consistency(active) == []


class TestRegionalRestart:
    def test_restart_readopts_committed_segments_and_ledgers(self):
        """A regional control-process restart wipes the switchboard;
        resync + reconciliation re-adopts the committed segments and
        rebuilds the border-ledger occupancy."""
        config = quiet_config()
        d = build_federation_deployment(config)
        d.failover.start(until=config.duration_s)

        # Pick a region that owns committed cross-shard segments.
        region = next(
            (
                r
                for r, node in sorted(d.region_nodes.items())
                if d.primary.regionals[r].committed_segments()
            ),
            None,
        )
        assert region is not None, "base population has no cross chain"
        regional = d.primary.regionals[region]
        committed_before = set(regional.committed_segments())
        ledgers_before = ledger_occupancy(regional)
        assert committed_before  # non-vacuous

        node = d.region_nodes[region]
        d.net.restart_host(node.host)
        node.restart()
        # The restart really wiped the volatile state.
        assert not regional.committed_segments()
        assert node.needs_resync

        d.net.run(until=10.0)

        assert set(regional.committed_segments()) == committed_before
        assert ledger_occupancy(regional) == ledgers_before
        assert not node.needs_resync
        assert check_ledger_consistency(d.failover.active) == []


class TestCoordinatorFailover:
    def test_standby_redrives_committed_but_unacked_install(self):
        """The primary crashes at the 2PC commit point -- install record
        flipped, durable record written, no commit message sent.  The
        standby takes over, finds the 'committing' install record, and
        re-drives the commits until every region holds the segments."""
        config = quiet_config()
        d = build_federation_deployment(config)
        d.failover.start(until=config.duration_s)
        chain, origin = cross_shard_chain(d, config)
        origin_node = d.region_nodes[origin]

        snapshot = {}

        send = d.primary._send

        def crash_instead(self, st, kind, key, attempt):
            if kind != "commit":
                return send(st, kind, key, attempt)
            if snapshot:
                return  # already crashed on the first commit
            # Snapshot the decided-but-unsent state, then crash.
            snapshot["phase"] = d.fed_store.log.pending()[
                st.chain.name
            ]["phase"]
            snapshot["committed"] = {
                seg.chain.name: seg.chain.name
                in d.primary.regionals[seg.region].committed_segments()
                for seg in st.segments.values()
            }
            snapshot["segments"] = [
                (seg.chain.name, seg.region) for seg in st.segments.values()
            ]
            d.failover.crash_active()

        d.primary._send = types.MethodType(crash_instead, d.primary)

        d.sim.schedule_at(1.0, origin_node.submit, chain)
        d.net.run(until=config.duration_s)
        d.net.run()

        # The crash really hit the commit point: the record said committing
        # and no region had committed yet (proves the test is not
        # passing vacuously on an already-finished install).
        assert snapshot["phase"] == twopc.COMMITTING
        assert snapshot["committed"]
        assert not any(snapshot["committed"].values())

        assert d.failover.takeovers == 1
        assert d.standby.active
        assert d.standby.recovered_commits == 1
        assert chain.name in d.standby._cross
        for key, region in snapshot["segments"]:
            assert key in d.standby.regionals[region].committed_segments()
        assert origin_node.outcomes[chain.name] == "installed"
        # Reconciliation settled the owed commits and cleared the record.
        assert d.standby._unacked == {}
        assert d.fed_store.log.pending() == {}
        assert check_ledger_consistency(
            d.standby, in_flight=d.in_flight()
        ) == []

    def test_takeover_aborts_uncommitted_wal_rounds(self):
        """A crash *before* the decide point leaves a 'preparing' install
        record; the standby aborts it (release, no tombstone) and the
        origin's queued retry re-installs the chain."""
        config = quiet_config()
        d = build_federation_deployment(config)
        d.failover.start(until=config.duration_s)
        chain, origin = cross_shard_chain(d, config)
        origin_node = d.region_nodes[origin]

        def crash_instead(self, st, kind, key, attempt):
            d.failover.crash_active()

        d.primary._send = types.MethodType(crash_instead, d.primary)

        d.sim.schedule_at(1.0, origin_node.submit, chain)
        d.net.run(until=config.duration_s)
        d.net.run()

        assert d.standby.active
        assert d.standby.aborted_recoveries == 1
        # The origin's retry reached the standby and the chain made it.
        assert origin_node.outcomes[chain.name] == "installed"
        assert chain.name in d.standby._cross
        assert d.fed_store.log.pending() == {}
        assert check_ledger_consistency(d.standby) == []

    def test_takeover_does_not_readopt_removed_chains(self):
        """Chains removed on the primary leave the durable record with
        them: the standby's recovery and reconciliation bring back
        neither the intra nor the cross-shard one."""
        config = quiet_config()
        d = build_federation_deployment(config)
        d.failover.start(until=config.duration_s)
        intra = sorted(d.primary._intra)[0]
        cross = sorted(d.primary._cross)[0]
        removed = (intra, cross)
        durable_intra, durable_cross = d.fed_store.restore()
        assert intra in durable_intra and cross in durable_cross
        kept = [name for name in d.primary.installed() if name not in removed]

        for name in removed:
            d.primary.remove(name)
        durable_intra, durable_cross = d.fed_store.restore()
        assert intra not in durable_intra and cross not in durable_cross

        d.sim.schedule_at(1.0, d.failover.crash_active)
        d.net.run(until=config.duration_s)
        d.net.run()

        assert d.failover.takeovers == 1
        assert d.standby.active
        assert d.standby.installed() == kept
        for name in removed:
            assert name not in d.model.chains
        for regional in d.standby.regionals.values():
            assert intra not in regional.model.chains
            assert not [
                key for key in regional.committed_segments()
                if key.startswith(f"{cross}@")
            ]
        assert check_ledger_consistency(d.standby) == []
        assert check_atomicity(d.standby) == []

    @pytest.mark.parametrize("replan", ["resolve", "sync_chains"])
    def test_takeover_restores_the_demands_of_a_re_plan(self, replan):
        """A re-plan after a redemand re-records every chain it
        refreshes: the durable record holds the new demands, and a
        standby that takes over reconciles the regions to them, not to
        the demands the chains were installed with."""
        config = quiet_config(seed=1)
        d = build_federation_deployment(config)
        d.failover.start(until=config.duration_s)
        cross = sorted(d.primary._cross)[0]
        intra = sorted(d.primary._intra)[0]
        for name, factor in ((cross, 1.2), (intra, 1.5)):
            chain = d.model.chains[name]
            d.model.remove_chain(name)
            d.model.add_chain(chain.scaled(factor))
            if replan == "resolve":
                d.primary.resolve(d.model, [name])
            else:
                assert d.primary.sync_chains()["updated"] == [name]
        live = [seg.border_demands for seg in d.primary._cross[cross].segments]
        durable_intra, durable_cross = d.fed_store.restore()
        assert durable_intra[intra][1].forward_traffic == d.model.chains[intra].forward_traffic
        assert [seg.border_demands for seg in durable_cross[cross].segments] == live

        d.sim.schedule_at(1.0, d.failover.crash_active)
        d.net.run(until=config.duration_s)
        d.net.run()

        assert d.failover.takeovers == 1 and d.standby.active
        region = d.standby._intra[intra]
        assert (
            d.standby.regionals[region].model.chains[intra].forward_traffic
            == d.model.chains[intra].forward_traffic
        )
        for seg, demands in zip(d.standby._cross[cross].segments, live):
            for link_name, amount in demands:
                ledger = d.standby.regionals[seg.region].ledgers[link_name]
                assert ledger.committed[seg.chain.name] == amount
        assert check_ledger_consistency(d.standby) == []


class TestFederatedChaosSoak:
    def test_multi_seed_soak_passes_and_replays_byte_identically(self):
        for seed in (1, 2):
            config = small_config(seed=seed)
            first = run_federation_chaos(config)
            assert first.passed, [
                (v.invariant, v.detail) for v in first.violations
            ]
            assert first.failover["takeovers"] >= 1
            assert first.queued["final"] == 0
            again = run_federation_chaos(config)
            assert again.to_json() == first.to_json()

    def test_scenario_is_deterministic_per_seed(self):
        config = small_config(seed=5)
        a = generate_federation_scenario(config)
        b = generate_federation_scenario(config)
        assert a.digest() == b.digest()
        assert a.to_json() == b.to_json()
        kinds = {event.kind for event in a.events}
        assert "gs_crash" in kinds
        assert "partition" in kinds


class TestUnifiedProbeRegistry:
    def test_chaos_runner_accepts_extra_probes(self):
        """Satellite: the generic chaos runner runs externally supplied
        invariant probes on its checker cadence."""
        hits = []

        def tattletale():
            hits.append(True)
            return ["synthetic problem"] if len(hits) == 1 else []

        report = run_chaos_soak(
            SoakConfig(seed=1, duration_s=10.0, num_chains=2),
            planted_probes=lambda _engine: {"tattletale": tattletale},
        )
        assert hits  # the probe really ran on the checker cadence
        assert any(v.invariant == "tattletale" for v in report.violations)


class TestChaosSoakCli:
    def test_federation_chaos_soak_smoke(self, capsys):
        rc = main([
            "federation", "--chaos-soak",
            "--pops", "12", "--chains", "24", "--regions", "3",
            "--seed", "3", "--duration", "30",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "federated chaos soak" in out
        assert "PASS" in out

    def test_federation_chaos_soak_json(self, capsys):
        import json

        rc = main([
            "federation", "--chaos-soak", "--json",
            "--pops", "12", "--chains", "24", "--regions", "3",
            "--seed", "3", "--duration", "30",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["seed"] == 3
