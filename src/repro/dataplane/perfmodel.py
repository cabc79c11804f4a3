"""Forwarder performance models (Section 5.4, Figures 7 and 8).

The paper measures two forwarder implementations on physical hardware:
an OVS-based forwarder (Figure 7) and a DPDK-based forwarder on Xeon
E5-2470 + 40 GbE (Figure 8).  Neither experiment is runnable here, so we
model the effects that produce the published curves:

- **OVS** (Figure 7): per-packet cost of the pipeline stages.  Relative
  to a plain bridge, the overlay labels (VXLAN+MPLS push/pop) cost
  19-29% of throughput and the flow-affinity learn/match rules a further
  33-44%, with the overhead shrinking as concurrent flows grow (rule
  setup amortizes).  Beyond a few thousand flows the kernel flow cache
  thrashes, which is the "poor scalability" that motivated the DPDK
  rewrite.

- **DPDK** (Figure 8): per-core packet cost equals a base cost plus a
  flow-table lookup penalty paid on CPU-cache misses.  Few flows -> the
  whole table is cache-resident -> ~7 Mpps/core; 512 K flows/core ->
  roughly half the lookups miss -> ~3.5-4 Mpps/core; far beyond the
  cache size the per-core rate settles a bit above 3 Mpps.  Cores scale
  linearly (per-core SR-IOV virtual functions, no shared state).

The constants below are calibrated to the paper's reported endpoints;
the *shapes* (amortization, linear core scaling, cache-miss decay) are
emergent from the model, which is what the Figure 7/8 benches verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ReproError


class PerfModelError(ReproError):
    """Raised on invalid performance-model inputs."""


def pps_to_gbps(pps: float, packet_bytes: int) -> float:
    """Convert a packet rate to line rate for a given packet size."""
    if packet_bytes <= 0:
        raise PerfModelError(f"non-positive packet size {packet_bytes}")
    return pps * packet_bytes * 8 / 1e9


@dataclass(frozen=True)
class OvsForwarderModel:
    """Throughput model of the OVS-based forwarder.

    ``base_pps`` is the plain-bridge packet rate.  Overheads are
    expressed as fractional throughput reductions; each decays from its
    1-flow value toward its many-flow value with time-constant
    ``amortization_flows`` as per-flow rule setup amortizes.
    """

    base_pps: float = 1.2e6
    label_overhead_high: float = 0.29
    label_overhead_low: float = 0.19
    affinity_overhead_high: float = 0.44
    affinity_overhead_low: float = 0.33
    amortization_flows: float = 15.0
    #: Flow count beyond which the kernel flow cache starts thrashing.
    cache_flows: float = 2000.0
    cache_decay_flows: float = 4000.0

    CONFIGS = ("bridge", "labels", "labels+affinity")

    def label_overhead(self, flows: int) -> float:
        """Fractional throughput cost of VXLAN+MPLS labels at a flow count."""
        return self._decay(
            flows, self.label_overhead_high, self.label_overhead_low
        )

    def affinity_overhead(self, flows: int) -> float:
        """Additional fractional cost of flow-affinity rules."""
        return self._decay(
            flows, self.affinity_overhead_high, self.affinity_overhead_low
        )

    def _decay(self, flows: int, high: float, low: float) -> float:
        if flows < 1:
            raise PerfModelError(f"need at least one flow, got {flows}")
        return low + (high - low) * math.exp(-(flows - 1) / self.amortization_flows)

    def _cache_factor(self, flows: int) -> float:
        if flows <= self.cache_flows:
            return 1.0
        return 1.0 / (1.0 + (flows - self.cache_flows) / self.cache_decay_flows)

    def throughput_pps(self, config: str, flows: int) -> float:
        """Steady-state packet rate for a pipeline config and flow count."""
        if config not in self.CONFIGS:
            raise PerfModelError(
                f"unknown config {config!r}; expected one of {self.CONFIGS}"
            )
        if flows < 1:
            raise PerfModelError(f"need at least one flow, got {flows}")
        pps = self.base_pps * self._cache_factor(flows)
        if config == "bridge":
            return pps
        pps *= 1.0 - self.label_overhead(flows)
        if config == "labels":
            return pps
        # Affinity rules also pay the flow-cache penalty sooner: every
        # connection installs a learn rule, doubling table pressure.
        return pps * (1.0 - self.affinity_overhead(flows)) * self._cache_factor(
            flows * 2
        )


@dataclass(frozen=True)
class DpdkForwarderModel:
    """Throughput/latency model of the DPDK forwarder.

    Per-packet cost on one core: ``base_cost_ns`` on a flow-table cache
    hit, plus ``miss_cost_ns`` on a miss.  The miss probability is the
    fraction of the flow table that does not fit in the core's share of
    CPU cache (uniform traffic over flows, as in the paper's generator).
    """

    base_cost_ns: float = 139.0
    miss_cost_ns: float = 190.0
    cached_entries: int = 256_000
    base_latency_us: float = 30.0
    max_latency_us: float = 1000.0

    def miss_rate(self, flows_per_core: int) -> float:
        if flows_per_core < 0:
            raise PerfModelError(f"negative flow count {flows_per_core}")
        if flows_per_core <= self.cached_entries:
            return 0.0
        return 1.0 - self.cached_entries / flows_per_core

    def per_core_pps(self, flows_per_core: int) -> float:
        """Single-core packet rate at a given flow-table occupancy."""
        cost_ns = self.base_cost_ns + self.miss_rate(flows_per_core) * self.miss_cost_ns
        return 1e9 / cost_ns

    def throughput_pps(self, cores: int, flows_per_core: int) -> float:
        """Aggregate packet rate: cores scale linearly (per-core NIC VFs)."""
        if cores < 1:
            raise PerfModelError(f"need at least one core, got {cores}")
        return cores * self.per_core_pps(flows_per_core)

    def steady_state_pps(self) -> float:
        """Per-core rate when the flow table vastly exceeds the cache."""
        return 1e9 / (self.base_cost_ns + self.miss_cost_ns)

    def latency_us(self, load_fraction: float) -> float:
        """Forwarding latency at a utilization level (M/M/1 queueing on
        top of the base processing latency, capped at the paper's
        observed 1 ms at maximum throughput)."""
        if load_fraction < 0:
            raise PerfModelError(f"negative load {load_fraction}")
        if load_fraction >= 1.0:
            return self.max_latency_us
        queueing = self.base_latency_us * load_fraction / (1.0 - load_fraction)
        return min(self.base_latency_us + queueing, self.max_latency_us)
