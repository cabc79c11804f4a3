"""``SubstrateColumns.transitions`` builds every stage transition a set
of front pairs lacks in one batched pass; ``tests/reference/transitions.py``
builds them one pair at a time.  On the pinned partitioner models -- and
on one of them without routing fractions -- any batch, with repeated
pairs and pairs already held, must hand out what the oracle builds:
every array equal, of the same dtype and shape, the candidate links
included."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columns import SubstrateColumns
from repro.core.model import NetworkModel
from tests.reference.transitions import transition
from tests.test_maintained_plan import COLD


@functools.cache
def substrate(name: str) -> NetworkModel:
    if name == "unrouted":
        model = substrate("te_replan")
        return NetworkModel(
            model.nodes, dict(model._latency), model.sites.values(),
            model.vnfs.values(), [], model.links.values(), {},
        )
    return COLD[name][0]().copy_with_chains([])


def assert_same(got, want) -> None:
    arrays = [(got.latency, want.latency), *zip(got.fwd, want.fwd), *zip(got.rev, want.rev)]
    for found, expected in arrays:
        assert found.dtype == expected.dtype and found.shape == expected.shape
        assert np.array_equal(found, expected)


@pytest.mark.parametrize("name", [*sorted(COLD), "unrouted"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_batch_is_the_pairs_built_one_by_one(name, data):
    sub = SubstrateColumns(substrate(name))
    fronts = st.integers(0, sub.n_nodes + len(sub.vnf_names) - 1)
    batches = data.draw(
        st.lists(st.lists(st.tuples(fronts, fronts), min_size=1, max_size=10), min_size=1, max_size=3)
    )
    for batch in batches:  # a later batch meets the pairs an earlier one built
        batch = batch + batch[: data.draw(st.integers(0, 2))]  # and repeats some
        held = dict(sub._transitions)
        got = sub.transitions(batch)
        assert all(sub._transitions[pair] is found for pair, found in held.items())
        for pair, found in zip(batch, got):
            assert found is sub._transitions[pair]
            assert_same(found, transition(sub, *pair))
            assert not found.latency.flags.writeable


def test_every_pair_of_a_model_in_one_batch():
    sub = SubstrateColumns(substrate("federation_region"))
    n = sub.n_nodes + len(sub.vnf_names)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    for pair, found in zip(pairs, sub.transitions(pairs)):
        assert_same(found, transition(sub, *pair))
