"""VNF platform services (Section 3) and behavioural VNF models.

A *VNF service* is a multi-site, multi-tenant service: instances at each
deployment site plus a centralized VNF controller that manages capacity
and participates in Global Switchboard's two-phase chain installation.

Behavioural models of the VNFs used in the paper's experiments:

- :mod:`repro.vnf.nat` -- a NAT (iptables in the paper) that rewrites
  five-tuples and needs symmetric return;
- :mod:`repro.vnf.firewall` -- a stateful firewall that needs flow
  affinity;
- :mod:`repro.vnf.cache` -- the Squid-style web cache of the Table 3
  shared-vs-siloed experiment, driven by a Zipf workload.
"""

from repro.vnf.cache import (
    CacheExperimentResult,
    LruCache,
    ZipfWorkload,
    chain_workloads,
    run_cache_experiment,
)
from repro.vnf.compressor import Compressor, compressed_stage_demands
from repro.vnf.firewall import StatefulFirewall
from repro.vnf.ids import IntrusionDetector
from repro.vnf.nat import NatFunction
from repro.vnf.service import AllocationError, VnfService

__all__ = [
    "AllocationError",
    "CacheExperimentResult",
    "Compressor",
    "compressed_stage_demands",
    "IntrusionDetector",
    "LruCache",
    "NatFunction",
    "StatefulFirewall",
    "VnfService",
    "ZipfWorkload",
    "chain_workloads",
    "run_cache_experiment",
]
