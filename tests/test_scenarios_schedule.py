"""Workload schedules: validation, canonical JSON, digests, composition."""

import json
import math

import pytest

from repro.chaos import FaultEvent, Scenario
from repro.scenarios import (
    ComposedSchedule,
    ScheduleError,
    WorkloadOp,
    WorkloadSchedule,
    compose,
    merge_workloads,
)


def make_schedule(kind="t", seed=1, ops=None):
    ops = ops if ops is not None else [
        WorkloadOp(at=3.0, op="remove", chain="b"),
        WorkloadOp(at=1.0, op="create", chain="a", value=2.0),
        WorkloadOp(at=2.0, op="redemand", chain="a", value=1.5),
    ]
    return WorkloadSchedule(kind=kind, seed=seed, duration_s=10.0, ops=ops)


class TestWorkloadOp:
    def test_unknown_op_rejected(self):
        with pytest.raises(ScheduleError):
            WorkloadOp(at=1.0, op="explode", chain="c")

    def test_create_needs_positive_value(self):
        with pytest.raises(ScheduleError):
            WorkloadOp(at=1.0, op="create", chain="c", value=0.0)

    def test_redemand_needs_positive_value(self):
        with pytest.raises(ScheduleError):
            WorkloadOp(at=1.0, op="redemand", chain="c", value=-1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ScheduleError):
            WorkloadOp(at=-0.1, op="remove", chain="c")

    @pytest.mark.parametrize("at", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, at):
        with pytest.raises(ScheduleError):
            WorkloadOp(at=at, op="remove", chain="c")

    @pytest.mark.parametrize("op", ["create", "redemand"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, op, value):
        with pytest.raises(ScheduleError):
            WorkloadOp(at=1.0, op=op, chain="c", value=value)

    def test_doc_round_trip(self):
        op = WorkloadOp(at=1.5, op="create", chain="c",
                        ingress=2, egress=3, stages=2, value=4.0)
        assert WorkloadOp.from_doc(op.to_doc()) == op


class TestWorkloadSchedule:
    def test_ops_sorted_by_time(self):
        schedule = make_schedule()
        assert [op.at for op in schedule.ops] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("duration", [0.0, math.nan, math.inf])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ScheduleError):
            WorkloadSchedule(kind="t", seed=1, duration_s=duration)

    def test_replayed_nan_time_rejected(self):
        # json.loads reads the NaN token: a replay file cannot smuggle
        # a non-finite time past the op's own check.
        text = make_schedule().to_json().replace('"at":1.0', '"at":NaN')
        with pytest.raises(ScheduleError):
            WorkloadSchedule.from_doc(json.loads(text))

    def test_json_round_trip_is_byte_identical(self):
        schedule = make_schedule()
        clone = WorkloadSchedule.from_doc(json.loads(schedule.to_json()))
        assert clone.to_json() == schedule.to_json()
        assert clone.digest() == schedule.digest()

    def test_digest_changes_with_content(self):
        a = make_schedule()
        b = make_schedule(ops=[WorkloadOp(at=1.0, op="remove", chain="x")])
        assert a.digest() != b.digest()

    def test_counts(self):
        counts = make_schedule().counts()
        assert counts == {"create": 1, "redemand": 1, "remove": 1}

    def test_canonical_json_is_sorted_and_compact(self):
        doc = json.loads(make_schedule().to_json())
        assert list(doc) == sorted(doc)
        assert ": " not in make_schedule().to_json()


class TestMergeWorkloads:
    def test_merges_and_sorts(self):
        a = make_schedule(kind="a", ops=[
            WorkloadOp(at=5.0, op="remove", chain="wl-a-0")])
        b = make_schedule(kind="b", ops=[
            WorkloadOp(at=1.0, op="create", chain="wl-b-0", value=1.0)])
        merged = merge_workloads("a+b", [a, b])
        assert [op.chain for op in merged.ops] == ["wl-b-0", "wl-a-0"]
        assert merged.kind == "a+b"

    def test_rejects_cross_kind_create_collision(self):
        a = make_schedule(kind="a", ops=[
            WorkloadOp(at=1.0, op="create", chain="wl-x", value=1.0)])
        b = make_schedule(kind="b", ops=[
            WorkloadOp(at=2.0, op="create", chain="wl-x", value=1.0)])
        with pytest.raises(ScheduleError):
            merge_workloads("a+b", [a, b])

    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            merge_workloads("none", [])


class TestComposedSchedule:
    def make_composed(self):
        faults = Scenario(seed=9, duration_s=10.0, events=[
            FaultEvent(at=4.0, kind="link_down", target=("wan.A", "proxy.B")),
            FaultEvent(at=6.0, kind="link_up", target=("wan.A", "proxy.B")),
        ])
        return compose(make_schedule(), faults)

    def test_json_round_trip(self):
        composed = self.make_composed()
        clone = ComposedSchedule.from_doc(json.loads(composed.to_json()))
        assert clone.to_json() == composed.to_json()
        assert clone.digest() == composed.digest()

    def test_items_are_time_sorted_and_tagged(self):
        items = self.make_composed().items()
        assert [tag for tag, _ in items] == [
            "workload", "workload", "workload", "fault", "fault"]
        assert [item[1].at for item in items] == [1.0, 2.0, 3.0, 4.0, 6.0]

    def test_with_items_round_trips(self):
        composed = self.make_composed()
        rebuilt = composed.with_items(composed.items())
        assert rebuilt.to_json() == composed.to_json()

    def test_with_items_subset(self):
        composed = self.make_composed()
        subset = composed.with_items(composed.items()[:2])
        assert len(subset.workload.ops) == 2
        assert not subset.faults.events
        assert subset.digest() != composed.digest()


class TestScenarioRoundTrip:
    def test_fault_scenario_json_round_trip(self):
        scenario = Scenario(seed=3, duration_s=8.0, events=[
            FaultEvent(at=1.0, kind="partition",
                       target=(("A", "B"), ("C",))),
            FaultEvent(at=4.0, kind="fail_site", target=("B",)),
        ])
        clone = Scenario.from_doc(json.loads(scenario.to_json()))
        assert clone.to_json() == scenario.to_json()
        assert clone.events[0].target == (("A", "B"), ("C",))
