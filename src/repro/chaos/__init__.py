"""Deterministic fault injection, invariant checking, and soak testing.

The paper's future-work list asks to "evaluate performance and cost
metrics in case of network and compute failures" (Section 7.3); this
package is the test harness for that: seeded fault schedules
(:mod:`repro.chaos.scenario`) played against a full deployment while
system invariants are probed continuously (:mod:`repro.chaos.invariants`).
:mod:`repro.chaos.runner` holds the one soak harness -- the
:class:`FaultEngine`, the probe loop and the :class:`SoakDoc` report --
and the monolithic soak on it; :mod:`repro.federation.chaos` is the
federated soak on the same harness.

Quick start::

    from repro.chaos import SoakConfig, run_soak
    report = run_soak(SoakConfig(seed=7, duration_s=30.0))
    assert report.passed, report.render()

or, from a shell, ``python -m repro chaos --seed 7``.
"""

from repro.chaos.invariants import (
    InvariantChecker,
    LeaseGrant,
    LeaseMonitor,
    Violation,
    bus_delivery,
    capacity_safety,
    lease_safety,
    link_conservation,
    network_quiescence,
    no_orphaned_reservations,
    two_phase_atomicity,
)
from repro.chaos.runner import (
    ChaosEngine,
    Deployment,
    FaultEngine,
    SoakConfig,
    SoakDoc,
    SoakReport,
    build_deployment,
    run_soak,
)
from repro.chaos.scenario import (
    EVENT_KINDS,
    FaultEvent,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    generate_scenario,
)

__all__ = [
    "EVENT_KINDS",
    "ChaosEngine",
    "Deployment",
    "FaultEngine",
    "FaultEvent",
    "InvariantChecker",
    "LeaseGrant",
    "LeaseMonitor",
    "Scenario",
    "ScenarioConfig",
    "ScenarioError",
    "SoakConfig",
    "SoakDoc",
    "SoakReport",
    "Violation",
    "build_deployment",
    "bus_delivery",
    "capacity_safety",
    "generate_scenario",
    "lease_safety",
    "link_conservation",
    "network_quiescence",
    "no_orphaned_reservations",
    "run_soak",
    "two_phase_atomicity",
]
