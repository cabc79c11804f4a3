"""repro.federation: sharded two-level switchboard hierarchy.

A federated control plane for O(10k) sites and 100k+ chains: the
substrate is cut into latency-coherent shards (``shard``), each owned
by a :class:`RegionalSwitchboard` running the full columnar solver
stack over its region alone (``regional``), with a thin
:class:`GlobalCoordinator` (``coordinator``) that only handles chains
crossing the cut -- splitting them at border sites, installing the
segments with epoch-fenced two-phase commit against per-border
capacity ledgers, and stitching the committed segments back into
end-to-end paths.  ``invariants`` holds the safety probes and ``soak``
the seeded fault-injection harness.

The partition-tolerant deployment lives in three further modules:
``ha`` (durable chain checkpoints, the install log, border-ledger
checkpoints, and lease-based coordinator failover), ``nodes`` (the
coordinator and regional processes speaking the 2PC and
reconciliation protocol over the reliable RPC transport), and
``chaos`` (the seeded federated chaos soak driving real link, host,
and partition faults against that stack).
"""

from repro.federation.chaos import (
    FederationChaosConfig,
    FederationChaosReport,
    build_federation_deployment,
    generate_federation_scenario,
    run_federation_chaos,
)
from repro.federation.coordinator import (
    CoordinatorCrash,
    CrossChainRecord,
    FederatedPlan,
    GlobalCoordinator,
)
from repro.federation.ha import FederationFailover, FederationStore
from repro.federation.invariants import (
    check_all,
    check_atomicity,
    check_capacity_safety,
    check_ledger_consistency,
    check_no_lost_requests,
    check_quiescence,
    check_single_active,
    check_stitching,
    federation_probes,
)
from repro.federation.nodes import CoordinatorNode, RegionalNode
from repro.federation.regional import (
    BorderLedger,
    RegionalSwitchboard,
    SegmentSpec,
    trivial_segment,
)
from repro.federation.shard import (
    BorderLink,
    FederationError,
    ShardMap,
    SubstrateShard,
    build_shards,
)
from repro.federation.soak import FaultPolicy, run_soak

__all__ = [
    "BorderLedger",
    "BorderLink",
    "CoordinatorCrash",
    "CoordinatorNode",
    "CrossChainRecord",
    "FaultPolicy",
    "FederatedPlan",
    "FederationChaosConfig",
    "FederationChaosReport",
    "FederationError",
    "FederationFailover",
    "FederationStore",
    "GlobalCoordinator",
    "RegionalNode",
    "RegionalSwitchboard",
    "SegmentSpec",
    "ShardMap",
    "SubstrateShard",
    "build_federation_deployment",
    "build_shards",
    "check_all",
    "check_atomicity",
    "check_capacity_safety",
    "check_ledger_consistency",
    "check_no_lost_requests",
    "check_quiescence",
    "check_single_active",
    "check_stitching",
    "federation_probes",
    "generate_federation_scenario",
    "run_federation_chaos",
    "run_soak",
    "trivial_segment",
]
