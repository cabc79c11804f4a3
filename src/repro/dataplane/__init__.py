"""Switchboard's data plane (Section 5).

- :mod:`repro.dataplane.labels` -- packets, five-tuples, and the two
  overlay labels (chain id + egress site) applied at the ingress edge.
- :mod:`repro.dataplane.flowtable` -- the per-forwarder flow table with
  the two entries per connection (next hop and previous hop) that give
  flow affinity and symmetric return.
- :mod:`repro.dataplane.rules` -- weighted load-balancing rules and the
  hierarchical weight computation (site-level TE fractions multiplied by
  instance weights).
- :mod:`repro.dataplane.forwarder` -- the forwarder itself plus a
  synchronous :class:`~repro.dataplane.forwarder.DataPlane` driver used
  by the safety-property tests and the dynamic-chaining experiments.
- :mod:`repro.dataplane.perfmodel` -- the OVS and DPDK forwarder
  performance models behind Figures 7 and 8.
- :mod:`repro.dataplane.e2e` -- the end-to-end throughput/latency model
  behind the Figure 10/11 testbed comparisons.
"""

from repro.dataplane.dht import (
    DhtFlowTableView,
    ReplicatedFlowTable,
)
from repro.dataplane.e2e import E2EResult, E2ERoute, E2ETestbed, VnfInstanceSpec
from repro.dataplane.flowtable import FlowTable
from repro.dataplane.headers import compare_overheads
from repro.dataplane.measurement import DemandEstimator, chain_byte_counts
from repro.dataplane.forwarder import DataPlane, Forwarder, VnfInstance
from repro.dataplane.labels import FiveTuple, LabelAllocator, Labels, Packet
from repro.dataplane.perfmodel import DpdkForwarderModel, OvsForwarderModel
from repro.dataplane.rules import LoadBalancingRule, WeightedChoice

__all__ = [
    "DataPlane",
    "DemandEstimator",
    "DhtFlowTableView",
    "DpdkForwarderModel",
    "E2EResult",
    "E2ERoute",
    "E2ETestbed",
    "VnfInstanceSpec",
    "FiveTuple",
    "FlowTable",
    "Forwarder",
    "LabelAllocator",
    "Labels",
    "LoadBalancingRule",
    "OvsForwarderModel",
    "Packet",
    "ReplicatedFlowTable",
    "VnfInstance",
    "WeightedChoice",
    "chain_byte_counts",
    "compare_overheads",
]
