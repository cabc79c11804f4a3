"""Shared fixtures for the Switchboard reproduction test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core import capacity, lp
from repro.core.model import Chain, CloudSite, NetworkModel, VNF

#: ``--hypothesis-profile=nightly`` (the nightly CI lane): every property
#: test draws ten times its own ``max_examples``.  Tier-1 keeps drawing
#: fresh examples at the usual count; a nightly finding becomes an
#: ``@example`` in the change that fixes it.
settings.register_profile("nightly")
NIGHTLY_FACTOR = 10


def pytest_collection_modifyitems(config, items):
    if config.getoption("hypothesis_profile", None) != "nightly":
        return
    # A test's own @settings win over any profile, so the factor goes
    # into the settings @given reads from the test at call time.
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and id(test) not in scaled:
            scaled.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=NIGHTLY_FACTOR * own.max_examples
            )


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
