"""Shared fixtures for the Switchboard reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import capacity, lp
from repro.core.model import Chain, CloudSite, NetworkModel, VNF


@pytest.fixture(autouse=True)
def cold_structure_caches():
    """Every test starts and ends with empty LP structure caches.

    A cached program is shared by every model of the same structure and
    is warm-started from its last basis, whatever demands or capacities
    that solve had; a warm solve is promised to be optimal within
    tolerance (``tests/test_warm_start_contract.py``), not to end on the
    same vertex as a cold one, so a test asserting a vertex must not
    depend on which test ran before it."""
    lp.clear_matrix_cache()
    capacity._CACHE.clear()
    yield
    lp.clear_matrix_cache()
    capacity._CACHE.clear()


@pytest.fixture
def triangle_model() -> NetworkModel:
    """Three nodes a-b-c with sites at each and two VNFs.

    Latencies: a-b 10, b-c 15, a-c 30 -- going through b is attractive
    for a->c traffic, which several routing tests exploit.
    """
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [
        CloudSite("A", "a", 100.0),
        CloudSite("B", "b", 100.0),
        CloudSite("C", "c", 100.0),
    ]
    vnfs = [
        VNF("fw", 1.0, {"A": 10.0, "B": 50.0}),
        VNF("nat", 0.5, {"B": 50.0, "C": 50.0}),
    ]
    chains = [
        Chain("c1", "a", "c", ["fw", "nat"], 5.0, 2.0),
        Chain("c2", "b", "c", ["fw"], 3.0, 1.0),
    ]
    return NetworkModel(nodes, latency, sites, vnfs, chains)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
