"""Tier-1 slice of the chaos/federation replay gate: seed 1 of each
kind plus the fixed-seed federation soak (CI replays all sixteen via
``benchmarks/replay_known_good.py``)."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "replay_known_good.py"
)
_spec = importlib.util.spec_from_file_location("replay_known_good", _SCRIPT)
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

with open(replay.KNOWN_GOOD) as _handle:
    KNOWN = json.load(_handle)


def test_known_good_covers_every_run():
    assert sorted(KNOWN) == sorted(replay.run_names())


@pytest.mark.parametrize("name", replay.run_names(seeds=(1,)))
def test_seed1_report_replays_byte_identically(name):
    assert replay.digest(name) == KNOWN[name]
