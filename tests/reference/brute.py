"""Brute-force chain routing, for verification only.

Enumerates every site path for a chain and returns the cheapest by
propagation latency.  Exponential in chain length (``|S|^|F_c|``), so it
only exists to anchor correctness tests: on instances small enough to
enumerate, SB-DP with a latency-only cost function must match the
brute-force optimum exactly, and the full SB-DP must never do better
than it (latency-wise) at zero load.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.model import Chain, NetworkModel


class BruteForceError(Exception):
    """Raised when enumeration would be intractable."""


@dataclass(frozen=True)
class BrutePath:
    """One enumerated chain path and its propagation latency."""

    sites: tuple[str, ...]
    latency: float


def enumerate_paths(
    model: NetworkModel, chain: Chain, max_paths: int = 200_000
) -> list[BrutePath]:
    """All (ingress, site_1, ..., site_k, egress) paths with latencies."""
    site_lists = [
        model.vnf_sites(vnf_name) for vnf_name in chain.vnfs
    ]
    count = 1
    for sites in site_lists:
        count *= max(1, len(sites))
        if count > max_paths:
            raise BruteForceError(
                f"{count}+ paths exceed the enumeration cap {max_paths}"
            )
    paths = []
    for combo in itertools.product(*site_lists):
        sites = (chain.ingress, *combo, chain.egress)
        latency = sum(
            model.site_latency(a, b) for a, b in zip(sites, sites[1:])
        )
        paths.append(BrutePath(sites, latency))
    return paths


def min_latency_path(model: NetworkModel, chain: Chain) -> BrutePath:
    """The provably latency-optimal path (ties broken lexicographically)."""
    paths = enumerate_paths(model, chain)
    if not paths:
        raise BruteForceError(f"chain {chain.name!r} has no paths")
    return min(paths, key=lambda p: (p.latency, p.sites))
