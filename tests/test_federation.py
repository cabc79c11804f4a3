"""Tests for the federated control plane: shard map, regional 2PC
participant, cross-shard split + install, invariants, and the soak."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.lp import LpObjective
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.federation import (
    CoordinatorCrash,
    FaultPolicy,
    FederationError,
    GlobalCoordinator,
    build_shards,
    check_all,
    check_quiescence,
    run_soak,
    trivial_segment,
)
from repro.federation.coordinator import MAX_ATTEMPTS
from repro.federation.regional import BorderLedger
from repro.scale import PartitionError, shard_map
from repro.topology.pops import PopGridConfig, generate_federation_workload

# Three regions on a line: {a0,a1} - {b0,b1} - {c0,c1}, intra delay 1,
# border delay 10.  VNF fa deploys only in region 0, fb in 1, fc in 2,
# so a chain [fa, fb, fc] must span all three regions.
_POSITIONS = {"a0": 0.0, "a1": 1.0, "b0": 11.0, "b1": 12.0, "c0": 22.0, "c1": 23.0}
_EDGES = [("a0", "a1"), ("a1", "b0"), ("b0", "b1"), ("b1", "c0"), ("c0", "c1")]
_BORDER_EDGES = {("a1", "b0"), ("b1", "c0")}


def tri_model(border_bw=(100.0, 100.0), chains=()):
    nodes = sorted(_POSITIONS)
    latency = {
        (u, v): abs(_POSITIONS[u] - _POSITIONS[v])
        for u in nodes
        for v in nodes
        if u < v
    }
    links = []
    for u, v in _EDGES:
        if (u, v) in _BORDER_EDGES:
            bw = border_bw[0] if u.startswith("a") else border_bw[1]
        else:
            bw = 1000.0
        links.append(Link(f"{u}-{v}", u, v, bw))
        links.append(Link(f"{v}-{u}", v, u, bw))
    sites = [CloudSite(n.upper(), n, 400.0) for n in nodes]
    vnfs = [
        VNF("fa", 1.0, {"A0": 200.0, "A1": 200.0}),
        VNF("fb", 1.0, {"B0": 200.0, "B1": 200.0}),
        VNF("fc", 1.0, {"C0": 200.0, "C1": 200.0}),
    ]
    return NetworkModel(nodes, latency, sites, vnfs, chains, links)


def intra_chain(name="ia", demand=5.0):
    return Chain(name, "a0", "a1", ["fa"], demand)


def cross_chain(name="x3", demand=10.0):
    """Spans all three regions: fa in 0, fb in 1, fc in 2."""
    return Chain(name, "a0", "c1", ["fa", "fb", "fc"], demand)


def tri_coordinator(border_bw=(100.0, 100.0), **kwargs):
    model = tri_model(border_bw=border_bw)
    return model, GlobalCoordinator(model, n_regions=3, **kwargs)


class ScriptedFaults:
    """Deterministic fault policy: reject every prepare in one region."""

    def __init__(self, reject_region, coordinator=None):
        self.reject_region = reject_region
        self.coordinator = coordinator
        self.observed_prepared = []

    def reject_prepare(self, chain, region, attempt_no):
        if region != self.reject_region:
            return False
        if self.coordinator is not None:
            # Snapshot what the *other* regions hold at rejection time,
            # so the test can prove the rollback was not vacuous.
            self.observed_prepared.append(
                {
                    r: tuple(regional.prepared_segments())
                    for r, regional in self.coordinator.regionals.items()
                }
            )
        return True

    def crash_after_prepares(self, chain, attempt_no):
        return None


class TestShardMap:
    def test_deterministic_disjoint_cover(self):
        model = tri_model()
        regions = shard_map(model, 3)
        assert regions == shard_map(model, 3)
        assert regions == (("a0", "a1"), ("b0", "b1"), ("c0", "c1"))

    def test_byte_stable_across_rebuilt_models(self):
        assert shard_map(tri_model(), 3) == shard_map(tri_model(), 3)

    def test_bounds_validated(self):
        model = tri_model()
        with pytest.raises(PartitionError):
            shard_map(model, 0)
        with pytest.raises(PartitionError):
            shard_map(model, 7)

    def test_generated_topology_cover(self):
        config = PopGridConfig(num_pops=12, num_metros=3, num_chains=12)
        model, _metro_of = generate_federation_workload(config)
        regions = shard_map(model, 3)
        nodes = [n for region in regions for n in region]
        assert sorted(nodes) == sorted(model.nodes)
        assert len(set(nodes)) == len(nodes)

    def test_build_shards_borders(self):
        model = tri_model()
        smap = build_shards(model, 3)
        assert sorted(smap.borders) == ["a1-b0", "b0-a1", "b1-c0", "c0-b1"]
        ab = smap.borders["a1-b0"]
        assert (ab.src_region, ab.dst_region) == (0, 1)
        assert ab.capacity == pytest.approx(
            model.link_headroom(model.links["a1-b0"])
        )
        # Each border is owned by its source-side region.
        assert "a1-b0" in smap.shards[0].owned_borders
        assert "b0-a1" in smap.shards[1].owned_borders
        assert smap.region_path(0, 2) == (0, 1, 2)

    def test_regional_model_restriction(self):
        model = tri_model()
        smap = build_shards(model, 3)
        regional = smap.regional_model(model, 1)
        assert sorted(regional.nodes) == ["b0", "b1"]
        # No border links: the regional planner never sees the cut.
        assert sorted(regional.links) == ["b0-b1", "b1-b0"]
        # Only regionally deployed VNFs survive.
        assert sorted(regional.vnfs) == ["fb"]
        assert sorted(regional.sites) == ["B0", "B1"]
        # Latency recomputed over the regional subgraph.
        assert regional.latency("b0", "b1") == pytest.approx(1.0)


class TestBorderLedger:
    def test_prepare_commit_release(self):
        ledger = BorderLedger("l", 100.0)
        assert ledger.prepare("s1", 60.0)
        assert ledger.prepare("s1", 60.0)  # idempotent re-prepare
        assert not ledger.prepare("s2", 50.0)  # over capacity
        assert ledger.prepare("s2", 40.0)
        assert ledger.reserved() == pytest.approx(100.0)
        assert ledger.commit("s1")
        assert ledger.commit("s1")  # idempotent
        ledger.abort("s2")
        assert ledger.reserved() == pytest.approx(60.0)
        ledger.teardown("s1")
        assert ledger.reserved() == 0.0

    def test_update_committed_is_guarded(self):
        ledger = BorderLedger("l", 100.0)
        ledger.prepare("s1", 60.0)
        ledger.commit("s1")
        assert not ledger.fits_update("s1", 120.0)
        assert not ledger.update_committed("s1", 120.0)
        assert ledger.committed["s1"] == pytest.approx(60.0)  # untouched
        assert ledger.update_committed("s1", 90.0)
        assert ledger.reserved() == pytest.approx(90.0)
        assert not ledger.update_committed("missing", 1.0)


class TestRegional2PC:
    def test_epoch_fencing_and_tombstone(self):
        model, coordinator = tri_coordinator()
        chain = cross_chain()
        seg0 = coordinator._split(chain, 0)[0]
        r0 = coordinator.regionals[0]
        assert r0.prepare(seg0, attempt=5)
        assert r0.prepare(seg0, attempt=5)  # idempotent
        assert not r0.prepare(seg0, attempt=3)  # stale attempt fenced
        assert not r0.commit(seg0.chain.name, attempt=3)
        assert not r0.abort(seg0.chain.name, attempt=3)
        assert r0.prepared_segments() == [seg0.chain.name]
        assert r0.commit(seg0.chain.name, attempt=5)
        assert r0.committed_segments() == [seg0.chain.name]
        r0.teardown(seg0.chain.name)
        # Tombstone: even a far-future attempt is fenced forever.
        assert not r0.prepare(seg0, attempt=10**6)
        assert r0.prepared_segments() == [] and r0.committed_segments() == []
        assert all(lg.reserved() == 0.0 for lg in r0.ledgers.values())
        assert seg0.chain.name not in r0.model.chains

    def test_rejected_prepare_leaves_no_partial_state(self):
        model, coordinator = tri_coordinator()
        chain = cross_chain(demand=10.0)
        segs = coordinator._split(chain, 0)
        r0 = coordinator.regionals[0]
        # Exhaust the a1-b0 ledger so the border reservation fails.
        r0.ledgers["a1-b0"].prepare("hog", 95.0)
        assert not r0.prepare(segs[0], attempt=1)
        assert r0.prepared_segments() == []
        assert segs[0].chain.name not in r0.model.chains
        assert r0.ledgers["a1-b0"].reserved() == pytest.approx(95.0)


class TestCrossInstall:
    def test_intra_classification(self):
        model, coordinator = tri_coordinator()
        region = coordinator.submit(intra_chain())
        assert region == 0
        assert coordinator.installed() == ["ia"]
        assert not coordinator.is_cross("ia")
        assert coordinator.regionals[0].intra_chains() == ["ia"]
        assert "ia" in model.chains

    def test_cross_install_spans_three_regions(self):
        model, coordinator = tri_coordinator()
        record = coordinator.submit(cross_chain(demand=10.0))
        assert [seg.region for seg in record.segments] == [0, 1, 2]
        assert coordinator.is_cross("x3")
        # Each crossing reserved the stage demand on the src-side ledger.
        assert coordinator.regionals[0].ledgers["a1-b0"].committed[
            "x3@s0"
        ] == pytest.approx(10.0)
        assert coordinator.regionals[1].ledgers["b1-c0"].committed[
            "x3@s1"
        ] == pytest.approx(10.0)
        hops = coordinator.end_to_end_route("x3")
        kinds = [h["kind"] for h in hops]
        assert kinds == ["segment", "border", "segment", "border", "segment"]
        assert check_all(coordinator) == []

    def test_prepare_rejection_rolls_back_all_regions(self):
        # Satellite 3: a chain spanning three regions where one regional
        # prepare is rejected must roll back reservations in ALL regions.
        model, coordinator = tri_coordinator()
        policy = ScriptedFaults(reject_region=2)
        policy.coordinator = coordinator
        coordinator.fault_policy = policy
        with pytest.raises(FederationError):
            coordinator.submit(cross_chain(demand=10.0))
        # The rejection was not vacuous: when region 2 said no, regions
        # 0 and 1 really held prepared segments (every attempt).
        assert len(policy.observed_prepared) == MAX_ATTEMPTS
        for snapshot in policy.observed_prepared:
            assert snapshot[0] == ("x3@s0",)
            assert snapshot[1] == ("x3@s1",)
        # ... and afterwards every region is fully rolled back.
        for regional in coordinator.regionals.values():
            assert regional.prepared_segments() == []
            assert regional.committed_segments() == []
            for ledger in regional.ledgers.values():
                assert ledger.prepared == {} and ledger.committed == {}
                assert ledger.reserved() == 0.0
            assert not any(
                name.startswith("x3@") for name in regional.model.chains
            )
        assert "x3" not in model.chains
        assert coordinator.installed() == []
        assert check_all(coordinator) == []

    def test_border_capacity_rejection_preserves_prior_installs(self):
        model, coordinator = tri_coordinator()  # border headroom 100
        coordinator.submit(cross_chain("x3", demand=60.0))
        with pytest.raises(FederationError):
            coordinator.submit(cross_chain("x4", demand=60.0))
        assert coordinator.installed() == ["x3"]
        ledger = coordinator.regionals[0].ledgers["a1-b0"]
        assert ledger.committed == {"x3@s0": pytest.approx(60.0)}
        assert ledger.prepared == {}
        assert "x4" not in model.chains
        assert check_all(coordinator) == []

    def test_coordinator_crash_residue_is_swept(self):
        model, coordinator = tri_coordinator()

        class CrashOnce:
            def reject_prepare(self, chain, region, attempt_no):
                return False

            def crash_after_prepares(self, chain, attempt_no):
                return 2 if attempt_no == 0 else None

        coordinator.fault_policy = CrashOnce()
        with pytest.raises(CoordinatorCrash):
            coordinator.submit(cross_chain(demand=10.0))
        # Crash after two prepares: fenced residue is still pinned.
        assert check_quiescence(coordinator) != []
        released = coordinator.sweep()
        assert [key for _region, key in released] == ["x3@s0", "x3@s1"]
        assert check_quiescence(coordinator) == []
        assert check_all(coordinator) == []
        for regional in coordinator.regionals.values():
            assert all(
                lg.reserved() == 0.0 for lg in regional.ledgers.values()
            )

    def test_remove_cross_releases_everything(self):
        model, coordinator = tri_coordinator()
        coordinator.submit(cross_chain(demand=10.0))
        coordinator.remove("x3")
        assert coordinator.installed() == []
        assert "x3" not in model.chains
        for regional in coordinator.regionals.values():
            assert regional.committed_segments() == []
            assert all(
                lg.reserved() == 0.0 for lg in regional.ledgers.values()
            )


class TestFederatedPlanning:
    def test_plan_all_carries_offered_demand(self):
        model, coordinator = tri_coordinator()
        coordinator.submit(intra_chain(demand=5.0))
        coordinator.submit(cross_chain(demand=10.0))
        plan = coordinator.plan_all(LpObjective.MAX_THROUGHPUT)
        assert plan.ok
        assert plan.offered_demand == pytest.approx(15.0)
        assert plan.carried_demand == pytest.approx(15.0)
        assert plan.violations == []
        assert check_all(coordinator, plan) == []

    def test_resolve_touches_only_changed_regions(self):
        model, coordinator = tri_coordinator()
        coordinator.submit(intra_chain(demand=5.0))
        coordinator.submit(cross_chain(demand=10.0))
        first = coordinator.plan_all()
        scaled = model.chains["ia"].scaled(1.2)
        model.remove_chain("ia")
        model.add_chain(scaled)
        second = coordinator.resolve(model, ["ia"])
        assert second.ok
        assert second.resolved_regions == (0,)
        # Untouched regions reuse the exact cached result object.
        assert second.per_region[1] is first.per_region[1]
        assert second.per_region[2] is first.per_region[2]

    def test_cross_demand_refresh_updates_border_reservations(self):
        model, coordinator = tri_coordinator()
        coordinator.submit(cross_chain(demand=10.0))
        scaled = model.chains["x3"].scaled(1.5)
        model.remove_chain("x3")
        model.add_chain(scaled)
        plan = coordinator.resolve(model, ["x3"])
        assert plan.ok
        ledger = coordinator.regionals[0].ledgers["a1-b0"]
        assert ledger.committed["x3@s0"] == pytest.approx(15.0)
        assert check_all(coordinator, plan) == []

    def test_border_overflow_on_refresh_is_atomic(self):
        # First border huge, second tight: the refresh must fail on the
        # second border *without* having resized the first.
        model, coordinator = tri_coordinator(border_bw=(1000.0, 100.0))
        coordinator.submit(cross_chain(demand=60.0))
        scaled = model.chains["x3"].scaled(2.0)
        model.remove_chain("x3")
        model.add_chain(scaled)
        with pytest.raises(FederationError):
            coordinator.resolve(model, ["x3"])
        assert coordinator.regionals[0].ledgers["a1-b0"].committed[
            "x3@s0"
        ] == pytest.approx(60.0)
        assert coordinator.regionals[1].ledgers["b1-c0"].committed[
            "x3@s1"
        ] == pytest.approx(60.0)

    def test_solve_syncs_against_shared_model(self):
        model, coordinator = tri_coordinator()
        model.add_chain(intra_chain(demand=5.0))
        model.add_chain(cross_chain(demand=10.0))
        plan = coordinator.solve(model)
        assert plan.ok
        assert coordinator.installed() == ["ia", "x3"]
        model.remove_chain("x3")
        coordinator.solve(model)
        assert coordinator.installed() == ["ia"]
        assert all(
            lg.reserved() == 0.0
            for regional in coordinator.regionals.values()
            for lg in regional.ledgers.values()
        )


class TestTrivialSegments:
    def test_transit_segment_skips_regional_lp(self):
        model, coordinator = tri_coordinator()
        # fa in region 0, fc in region 2: region 1 is pure transit and
        # its segment enters at b0 and leaves at b1 (distinct nodes), so
        # it IS planned; a same-node transit would be trivial.
        record = coordinator.submit(
            Chain("xt", "a0", "c1", ["fa", "fc"], 8.0)
        )
        middle = record.segments[1]
        assert middle.region == 1 and middle.chain.vnfs == ()
        assert not trivial_segment(middle.chain)
        assert trivial_segment(Chain("t", "b0", "b0", [], 8.0))
        plan = coordinator.plan_all()
        assert plan.ok and plan.carried_demand == pytest.approx(8.0)
        assert check_all(coordinator, plan) == []


class TestMetrics:
    def test_counters_and_collector(self):
        from repro.obs import MetricsRegistry, collect_federation

        registry = MetricsRegistry()
        model = tri_model()
        coordinator = GlobalCoordinator(model, n_regions=3, metrics=registry)
        coordinator.submit(intra_chain())
        coordinator.submit(cross_chain(demand=10.0))
        assert registry.value("federation.chains.intra") == 1
        assert registry.value("federation.chains.cross") == 1
        assert registry.value("federation.2pc.commits") == 1
        coordinator.plan_all()
        collect_federation(registry, coordinator)
        assert registry.value("federation.cross_shard_ratio") == pytest.approx(
            0.5
        )
        assert registry.value("federation.regions") == 3
        assert registry.value("federation.borders") == 4
        assert registry.value("federation.region_chains", region=0) == 2
        assert registry.value("federation.region_segments", region=1) == 1
        assert registry.value(
            "federation.border_utilization", border="a1-b0"
        ) == pytest.approx(0.1)


class TestSoak:
    @pytest.mark.parametrize("field,value", [
        ("reject_rate", float("nan")),
        ("reject_rate", -1.0),
        ("reject_rate", 1.5),
        ("crash_rate", float("nan")),
        ("crash_rate", -0.1),
    ])
    def test_fault_rate_out_of_range_rejected(self, field, value):
        with pytest.raises(FederationError, match="out of range"):
            FaultPolicy(**{field: value})

    def test_mini_soak_is_green(self):
        model, coordinator = tri_coordinator(metrics=None)
        base = [
            intra_chain("ia", 4.0),
            Chain("ib", "b0", "b1", ["fb"], 4.0),
            cross_chain("x3", 8.0),
        ]
        for chain in base:
            coordinator.submit(chain)
        pool = [
            Chain("x4", "a1", "c0", ["fb"], 6.0),
            Chain("ic", "c0", "c1", ["fc"], 4.0),
            Chain("x5", "a0", "b1", ["fa", "fb"], 6.0),
            Chain("x6", "b0", "c1", ["fc"], 5.0),
        ]
        coordinator.fault_policy = FaultPolicy(
            seed=3, reject_rate=0.3, crash_rate=0.25
        )
        report = run_soak(model, coordinator, pool, ops=40, seed=5)
        assert report["ok"], report["violations"]
        assert report["counts"]["submit"] > 0
        assert report["counts"]["resolve"] > 0
        assert report["final_status"] == "optimal"


# -- hash order is not an input ------------------------------------------------

_RESOLVE_SCRIPT = """
import json, random
from repro.core.highs import ColumnGenSolver
from tests.test_feasibility_certificate import federation, rescale

objectives = []
solve = ColumnGenSolver.solve

def recording(self, *program):
    x, objective = solve(self, *program)
    objectives.append(objective)
    return x, objective

ColumnGenSolver.solve = recording
coordinator = federation()
coordinator.plan_all()
rng = random.Random(4)
for _ in range(3):
    assert coordinator.resolve(coordinator.model, rescale(coordinator, rng, 6)).ok
orders = [list(r.model.chains) for _, r in sorted(coordinator.regionals.items())]
print(json.dumps([objectives, orders]))
"""


def test_resolve_does_not_depend_on_the_hash_seed():
    """``resolve`` pushes the changed chains' demands into the regional
    models in the caller's order, so every process leaves the same
    regional models behind and solves the same programs.  (A ``set`` of
    names walked them in ``str``-hash order; a regional model's chain
    order is the order its partitioner pre-routes re-scaled chains in,
    which decides the capacity shares of the next solves.)"""
    root = Path(__file__).resolve().parent.parent

    def solved(hash_seed: str) -> list:
        done = subprocess.run(
            [sys.executable, "-c", _RESOLVE_SCRIPT], cwd=root, check=True,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": str(root / "src")},
        )
        return json.loads(done.stdout)

    objectives, orders = first = solved("1")
    assert len(objectives) > 6 and all(orders)
    assert first == solved("2")
