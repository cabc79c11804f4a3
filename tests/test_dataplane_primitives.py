"""Tests for labels, flow tables, and load-balancing rules."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.dataplane.labels import FiveTuple, LabelAllocator, Labels, Packet
from repro.dataplane.rules import (
    RuleError,
    WeightedChoice,
    forwarder_weight,
)

FLOW = FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1111, 80)
LBL = Labels(chain=1, egress_site="C")


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self):
        rev = FLOW.reversed()
        assert rev.src_ip == FLOW.dst_ip
        assert rev.dst_port == FLOW.src_port
        assert rev.protocol == FLOW.protocol

    def test_reversed_is_involution(self):
        assert FLOW.reversed().reversed() == FLOW

    def test_hashable_as_dict_key(self):
        d = {FLOW: 1}
        assert d[FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1111, 80)] == 1


class TestPacket:
    def test_trace_records_elements(self):
        packet = Packet(FLOW)
        packet.record("e1")
        packet.record("f1")
        assert packet.trace == ["e1", "f1"]

    def test_copy_isolates_trace(self):
        packet = Packet(FLOW)
        packet.record("a")
        clone = packet.copy()
        clone.record("b")
        assert packet.trace == ["a"]


class TestLabelAllocator:
    def test_labels_unique_per_chain(self):
        alloc = LabelAllocator()
        l1 = alloc.allocate("chain-1")
        l2 = alloc.allocate("chain-2")
        assert l1 != l2

    def test_allocate_is_idempotent(self):
        alloc = LabelAllocator()
        assert alloc.allocate("c") == alloc.allocate("c")

    def test_release_forgets_chain(self):
        alloc = LabelAllocator()
        first = alloc.allocate("c")
        alloc.release("c")
        assert alloc.lookup("c") is None
        assert alloc.allocate("c") != first  # labels are never recycled


class TestFlowTable:
    def test_miss_then_insert_then_hit(self):
        table = FlowTable()
        assert table.lookup(LBL, FLOW) is None
        entry = table.insert(LBL, FLOW)
        entry.next_hop = "f2"
        found = table.lookup(LBL, FLOW)
        assert found is entry
        assert table.misses == 1 and table.hits == 1

    def test_insert_is_idempotent(self):
        table = FlowTable()
        e1 = table.insert(LBL, FLOW)
        e2 = table.insert(LBL, FLOW)
        assert e1 is e2
        assert table.inserts == 1

    def test_different_labels_are_different_entries(self):
        table = FlowTable()
        e1 = table.insert(LBL, FLOW)
        e2 = table.insert(Labels(2, "C"), FLOW)
        assert e1 is not e2

    def test_eviction_at_capacity(self):
        table = FlowTable(max_entries=2)
        flows = [
            FiveTuple("10.0.0.1", "20.0.0.1", "tcp", p, 80) for p in range(3)
        ]
        for flow in flows:
            table.insert(LBL, flow)
        assert len(table) == 2
        assert table.evictions == 1
        assert table.lookup(LBL, flows[0]) is None  # oldest evicted

    def test_alias_shares_entry_object(self):
        table = FlowTable()
        entry = table.insert(LBL, FLOW)
        rewritten = FiveTuple("200.0.0.1", "20.0.0.1", "tcp", 40000, 80)
        aliased = table.alias(LBL, rewritten, entry)
        assert aliased is entry
        assert table.lookup(LBL, rewritten) is entry

    def test_alias_respects_existing_key(self):
        table = FlowTable()
        existing = table.insert(LBL, FLOW)
        other = table.insert(LBL, FLOW.reversed())
        assert table.alias(LBL, FLOW, other) is existing

    def test_remove(self):
        table = FlowTable()
        table.insert(LBL, FLOW)
        assert table.remove(LBL, FLOW)
        assert not table.remove(LBL, FLOW)

    def test_entries_for_chain(self):
        table = FlowTable()
        table.insert(LBL, FLOW)
        table.insert(Labels(9, "C"), FLOW.reversed())
        entries = table.entries_for_chain(1)
        assert len(entries) == 1


class TestWeightedChoice:
    def test_single_target_always_chosen(self):
        choice = WeightedChoice({"x": 1.0})
        rng = random.Random(0)
        assert all(choice.pick(rng) == "x" for _ in range(10))

    def test_zero_weight_never_chosen(self):
        choice = WeightedChoice({"x": 1.0, "y": 0.0})
        rng = random.Random(0)
        assert all(choice.pick(rng) == "x" for _ in range(100))

    def test_weights_respected_statistically(self):
        choice = WeightedChoice({"x": 3.0, "y": 1.0})
        rng = random.Random(42)
        picks = [choice.pick(rng) for _ in range(4000)]
        ratio = picks.count("x") / len(picks)
        assert 0.70 <= ratio <= 0.80

    def test_negative_weight_rejected(self):
        with pytest.raises(RuleError):
            WeightedChoice({"x": -1.0})

    def test_all_zero_weights_raise_on_pick(self):
        choice = WeightedChoice({"x": 0.0})
        with pytest.raises(RuleError):
            choice.pick(random.Random(0))

    def test_remove_target(self):
        choice = WeightedChoice({"x": 1.0, "y": 1.0})
        choice.remove("y")
        assert choice.targets == ["x"]

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.floats(min_value=0.01, max_value=100.0),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_pick_always_returns_positive_weight_target(self, weights, seed):
        choice = WeightedChoice(weights)
        picked = choice.pick(random.Random(seed))
        assert weights[picked] > 0

    def test_held_total_draws_as_the_resumming_loop_did(self):
        """``pick`` holds its total between edits; the loop that summed
        the weights on every draw is the definition."""

        def resumming_pick(weights, rng):
            total = sum(weights.values())
            if total <= 0:
                raise RuleError("no eligible targets (all weights zero)")
            point = rng.uniform(0.0, total)
            acc, chosen = 0.0, None
            for target, weight in weights.items():
                if weight <= 0:
                    continue
                acc += weight
                chosen = target
                if point <= acc:
                    break
            return chosen

        weights = {"a": 1.0, "b": 0.0, "c": 2.5, "d": 0.25, "e": 0.0}
        choice, rng, reference_rng = WeightedChoice(weights), random.Random(11), random.Random(11)
        for draw in range(10_000):
            if draw == 3_000:
                choice.set_weight("b", 4.0)
                weights["b"] = 4.0
            elif draw == 6_000:
                choice.remove("c")
                del weights["c"]
            elif draw == 8_000:
                choice.set_weight("f", 0.125)
                weights["f"] = 0.125
            assert choice.pick(rng) == resumming_pick(weights, reference_rng)
        assert rng.getstate() == reference_rng.getstate()
        assert choice.total_weight == sum(weights.values())
        for target in list(weights):
            choice.set_weight(target, 0.0)
        with pytest.raises(RuleError):
            choice.pick(rng)
        assert rng.getstate() == reference_rng.getstate()  # refused before drawing


class TestHierarchicalWeights:

    def test_forwarder_weight_sums_instances(self):
        # The paper's example: weight of F2 = weight of O1 + weight of O2.
        assert forwarder_weight({"O1": 1.5, "O2": 2.5}) == pytest.approx(4.0)

    def test_forwarder_weight_rejects_negative(self):
        with pytest.raises(RuleError):
            forwarder_weight({"O1": -1.0})
