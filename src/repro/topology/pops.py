"""Generated large PoP topologies for the federation experiments.

The hand-curated 25-city backbone tops out far below the O(10k)-site
regime the federated control plane targets, so this module *generates*
continental-scale PoP sets: a configurable number of metro clusters
spread over the continental-US bounding box, each holding an equal share
of PoPs scattered around its centre.  The cluster structure is the
point -- it gives `repro.scale.shard_map` latency-coherent regions to
recover, makes most gravity-weighted demand intra-metro (the
``locality`` knob), and leaves a thin tail of cross-metro chains for the
:class:`repro.federation.GlobalCoordinator` to split at borders.

:func:`generate_federation_workload` is the full 500-PoP / 100k-chain
style :class:`~repro.core.model.NetworkModel` builder with
locality-biased chains.  Its backbone is :func:`build_backbone`'s, so
latencies and ECMP fractions come from the one path-counting routine,
:func:`repro.topology.backbone.shortest_path_tables`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.core.model import Chain, CloudSite, NetworkModel
from repro.topology.backbone import build_backbone
from repro.topology.cities import City
from repro.topology.traffic import (
    apply_background,
    gravity_traffic_matrix,
    split_switchboard_background,
)
from repro.topology.workload import (
    MAX_CHAIN_LENGTH,
    MIN_CHAIN_LENGTH,
    REVERSE_RATIO,
    SWITCHBOARD_SHARE,
    WorkloadConfig,
    place_vnfs,
)

#: Continental-US bounding box the metro centres are spread over.
_LAT_RANGE = (27.0, 47.5)
_LON_RANGE = (-122.5, -72.0)
#: Compute capacity of every generated site.
_SITE_CAPACITY = 4000.0
#: Long-haul links the backbone adds between distant PoPs.
_LONG_HAUL_PAIRS = 6


@dataclass(frozen=True)
class PopGridConfig:
    """Parameters of a generated clustered PoP topology + workload.

    ``locality`` is the probability that a chain's ingress and egress
    fall in the same metro cluster; the remainder are cross-metro and
    become the federation's cross-shard workload.  The rest is
    :class:`~repro.topology.workload.WorkloadConfig`'s (the paper's
    Section 7.3 setup) at generated scale: VNF coverage, chain lengths,
    the Switchboard share and the reverse ratio, with larger sites.
    """

    num_pops: int = 60
    num_metros: int = 4
    num_chains: int = 240
    num_vnfs: int = 20
    locality: float = 0.8
    total_traffic: float = 4000.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_metros < 1:
            raise ReproError(f"num_metros must be positive, got {self.num_metros}")
        if self.num_pops < self.num_metros:
            raise ReproError("need at least one PoP per metro")
        if self.num_chains < 1:
            raise ReproError(f"num_chains must be positive, got {self.num_chains}")
        if not 0.0 <= self.locality <= 1.0:
            raise ReproError(f"locality must be in [0, 1]: {self.locality}")


def generate_pop_cities(
    config: PopGridConfig,
) -> tuple[tuple[City, ...], dict[str, int]]:
    """Generate the clustered PoP set.

    Metro centres are picked greedily farthest-first from a seeded
    candidate pool (so they spread over the bounding box); PoPs are
    dealt round-robin to metros and scattered normally around their
    centre with heavy-tailed populations.  Returns the cities plus the
    ground-truth ``PoP name -> metro index`` map (used by the workload
    generator's locality rule and by tests; the federation itself
    derives its shard map from latencies alone).
    """
    rng = random.Random(config.seed)
    candidates = [
        (rng.uniform(*_LAT_RANGE), rng.uniform(*_LON_RANGE))
        for _ in range(max(24, 4 * config.num_metros))
    ]
    centres = [candidates[0]]
    while len(centres) < config.num_metros:
        centres.append(
            max(
                candidates,
                key=lambda c: min(
                    (c[0] - o[0]) ** 2 + (c[1] - o[1]) ** 2 for o in centres
                ),
            )
        )

    cities: list[City] = []
    metro_of: dict[str, int] = {}
    for i in range(config.num_pops):
        metro = i % config.num_metros
        lat, lon = centres[metro]
        name = f"P{i:04d}"
        cities.append(
            City(
                name,
                lat + rng.gauss(0.0, 1.1),
                lon + rng.gauss(0.0, 1.4),
                min(20.0, 0.3 + rng.paretovariate(1.2)),
            )
        )
        metro_of[name] = metro
    return tuple(cities), metro_of


def _generate_local_chains(
    config: PopGridConfig,
    cities: tuple[City, ...],
    metro_of: dict[str, int],
    vnf_names: list[str],
    row_sums: dict[str, float],
    rng: random.Random,
) -> list[Chain]:
    """Locality-biased chains with gravity-weighted demand (the
    generate_chains rule plus the intra-metro endpoint bias)."""
    by_metro: dict[int, list[str]] = {}
    for city in cities:
        by_metro.setdefault(metro_of[city.name], []).append(city.name)
    nodes = [c.name for c in cities]
    order = {name: i for i, name in enumerate(vnf_names)}
    switchboard_total = config.total_traffic * SWITCHBOARD_SHARE

    picks: list[tuple[str, str, list[str]]] = []
    weights: list[float] = []
    for _ in range(config.num_chains):
        if rng.random() < config.locality or config.num_metros == 1:
            metro = rng.randrange(config.num_metros)
            pool = by_metro[metro]
            ingress, egress = (
                rng.sample(pool, 2) if len(pool) >= 2 else rng.sample(nodes, 2)
            )
        else:
            ingress, egress = rng.sample(nodes, 2)
            while metro_of[ingress] == metro_of[egress]:
                ingress, egress = rng.sample(nodes, 2)
        length = rng.randint(MIN_CHAIN_LENGTH, MAX_CHAIN_LENGTH)
        vnfs = sorted(rng.sample(vnf_names, length), key=order.__getitem__)
        picks.append((ingress, egress, vnfs))
        weights.append(row_sums[ingress])

    total_weight = sum(weights) or 1.0
    demand_norm = switchboard_total / (total_weight * (1.0 + REVERSE_RATIO))
    chains = []
    for i, ((ingress, egress, vnfs), weight) in enumerate(zip(picks, weights)):
        forward = weight * demand_norm
        chains.append(
            Chain(
                f"chain{i:06d}",
                ingress,
                egress,
                vnfs,
                forward_traffic=forward,
                reverse_traffic=forward * REVERSE_RATIO,
            )
        )
    return chains


def generate_federation_workload(
    config: PopGridConfig | None = None,
) -> tuple[NetworkModel, dict[str, int]]:
    """Build the complete generated-scale model.

    Returns ``(model, metro_of)`` -- the model plus the ground-truth
    metro assignment used for locality (informational; federation
    derives shards from the model alone).
    """
    config = config or PopGridConfig()
    rng = random.Random(config.seed)
    cities, metro_of = generate_pop_cities(config)
    backbone = build_backbone(cities, long_haul_pairs=_LONG_HAUL_PAIRS)

    matrix = gravity_traffic_matrix(cities, config.total_traffic)
    switchboard_matrix, background_matrix = split_switchboard_background(
        matrix, SWITCHBOARD_SHARE
    )
    links = apply_background(backbone, background_matrix)
    # Row sums once (TrafficMatrix.row_sum is O(n^2) per call).
    row_sums: dict[str, float] = {c.name: 0.0 for c in cities}
    for (src, _dst), volume in switchboard_matrix.demand.items():
        row_sums[src] += volume

    sites = [
        CloudSite(f"S-{node}", node, _SITE_CAPACITY)
        for node in backbone.nodes
    ]
    workload_cfg = WorkloadConfig(
        num_vnfs=config.num_vnfs,
        num_chains=config.num_chains,
        site_capacity=_SITE_CAPACITY,
        seed=config.seed,
    )
    vnfs = place_vnfs(workload_cfg, [s.name for s in sites], rng)
    chains = _generate_local_chains(
        config, cities, metro_of, [v.name for v in vnfs], row_sums, rng
    )
    model = NetworkModel(
        nodes=backbone.nodes,
        latency=backbone.latency,
        sites=sites,
        vnfs=vnfs,
        chains=chains,
        links=links,
        routing=backbone.routing,
    )
    return model, metro_of
