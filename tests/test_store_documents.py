"""One document form per record: the chain document is what the
federation store persists and the federated RPC messages
carry, and ``repro.core`` stands on its own below the controller."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.controller.replication import ReplicatedStore
from repro.core.model import Chain, ModelError
from repro.core.serialization import (
    SerializationError,
    chain_from_dict,
    chain_to_dict,
)
from repro.federation.coordinator import CrossChainRecord
from repro.federation.ha import FederationStore
from repro.federation.regional import SegmentSpec


def test_core_imports_no_module_outside_core():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro.core; "
         "print(json.dumps(sorted(m for m in sys.modules "
         "if m.startswith('repro'))))"],
        capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    ).stdout
    outside = [
        m for m in json.loads(loaded)
        if m != "repro" and not m.startswith("repro.core")
    ]
    assert outside == []


def compressing_chain(name="x3"):
    return Chain(name, "a0", "c1", ["fa", "fb"], [4.0, 2.0, 1.0], [0.5, 0.5, 0.25])


class TestChainEntry:
    def test_round_trip(self):
        chain = compressing_chain()
        assert chain_from_dict(json.loads(json.dumps(chain_to_dict(chain)))) == chain

    def test_missing_key_is_a_serialization_error(self):
        entry = chain_to_dict(compressing_chain())
        del entry["reverse_traffic"]
        with pytest.raises(SerializationError):
            chain_from_dict(entry)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_demand_is_the_chains_own_error(self, value):
        entry = chain_to_dict(compressing_chain())
        entry["forward_traffic"][1] = value
        with pytest.raises(ModelError):
            chain_from_dict(entry)

    def test_wrong_stage_count_is_the_chains_own_error(self):
        entry = chain_to_dict(compressing_chain())
        entry["forward_traffic"] = [1.0]
        with pytest.raises(ModelError):
            chain_from_dict(entry)


class TestFederationStore:
    def store(self):
        return FederationStore(ReplicatedStore(["r0", "r1", "r2"]))

    def test_intra_record_round_trips(self):
        fed = self.store()
        chain = Chain("ia", "a0", "a1", ["fa"], [5.0, 2.5], 1.0)
        fed.checkpoint_intra("ia", 0, chain)
        assert fed.restore() == ({"ia": (0, chain)}, {})

    def test_cross_record_round_trips(self):
        fed = self.store()
        chain = compressing_chain()
        segments = (
            SegmentSpec("x3", 0, 0, Chain("x3@s0", "a0", "a1", ["fa"], [4.0, 2.0]),
                        (("a1-b0", 2.0),)),
            SegmentSpec("x3", 1, 1, Chain("x3@s1", "b0", "c1", ["fb"], [2.0, 1.0])),
        )
        record = CrossChainRecord(chain, segments, attempt=7)
        fed.checkpoint_cross(record)
        assert fed.restore() == ({}, {"x3": record})
        fed.remove_chain("x3")
        assert fed.restore() == ({}, {})
