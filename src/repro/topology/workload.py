"""Chain workload generation for the Section 7.3 simulations.

Reproduces the paper's simulation setup:

- cloud sites of homogeneous capacity colocated with backbone nodes;
- a catalog of VNF services, each deployed at a random fraction of sites
  (the *coverage* parameter);
- at each site, capacity divided equally among the VNF instances there;
- each VNF modelled by its compute cost per byte (*CPU/byte*);
- chains with randomly chosen ingress/egress, 3-5 VNFs drawn from the
  catalog and ordered by a canonical VNF order (firewalls before NATs
  etc.), and traffic proportional to the traffic at the ingress site;
- total traffic split 4:1 between Switchboard chains and background.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import ReproError
from repro.core.model import Chain, CloudSite, NetworkModel, VNF
from repro.topology.backbone import Backbone, build_backbone
from repro.topology.cities import City, DEFAULT_CITIES
from repro.topology.traffic import (
    TrafficMatrix,
    apply_background,
    gravity_traffic_matrix,
    split_switchboard_background,
)


#: A chain's reverse demand per unit of its forward demand.
REVERSE_RATIO = 0.25
#: Share of the total traffic Switchboard chains carry: the paper's 4:1
#: split between chains and background.
SWITCHBOARD_SHARE = 0.8
#: VNFs per chain: the paper's 3-5.
MIN_CHAIN_LENGTH = 3
MAX_CHAIN_LENGTH = 5


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a generated workload.

    The paper's headline simulation uses ``num_vnfs=100`` and
    ``num_chains=10000`` on the full AT&T backbone; the defaults here are
    sized for the LP to remain tractable on a laptop while preserving
    every trend (the benches note the scale-down).  ``total_traffic`` is
    the whole-network demand (Switchboard + background) in link-bandwidth
    units; ``site_capacity`` is ``m_s`` in compute-load units, where one
    unit of traffic through a CPU/byte=1 VNF consumes 2 load units (one
    receive + one send, per Equation 4).
    """

    num_vnfs: int = 20
    coverage: float = 0.5
    cpu_per_byte: float = 1.0
    num_chains: int = 100
    min_chain_length: int = MIN_CHAIN_LENGTH
    max_chain_length: int = MAX_CHAIN_LENGTH
    total_traffic: float = 500.0
    switchboard_share: float = SWITCHBOARD_SHARE
    site_capacity: float = 150.0
    seed: int = 42
    cities: Sequence[City] = field(default=DEFAULT_CITIES)

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ReproError(f"coverage must be in (0, 1]: {self.coverage}")
        if self.min_chain_length > self.max_chain_length:
            raise ReproError("min_chain_length > max_chain_length")
        if self.max_chain_length > self.num_vnfs:
            raise ReproError("chains cannot be longer than the VNF catalog")
        if self.num_chains < 1:
            raise ReproError(f"num_chains must be positive, got {self.num_chains}")
        if not 0 < self.total_traffic < math.inf:
            raise ReproError(f"total_traffic must be positive and finite, got {self.total_traffic}")


def place_vnfs(
    config: WorkloadConfig,
    site_names: Sequence[str],
    rng: random.Random,
) -> list[VNF]:
    """Create the VNF catalog with coverage-based random placement.

    Each VNF lands at ``max(1, round(coverage * num_sites))`` random
    sites; per-site VNF capacity is the site capacity divided equally
    among the VNF instances placed there (the paper's rule).
    """
    num_sites = max(1, round(config.coverage * len(site_names)))
    placements: dict[str, list[str]] = {}
    instances_per_site: dict[str, int] = {s: 0 for s in site_names}
    for i in range(config.num_vnfs):
        name = f"vnf{i:03d}"
        chosen = rng.sample(list(site_names), num_sites)
        placements[name] = chosen
        for site in chosen:
            instances_per_site[site] += 1

    vnfs = []
    for name, sites in placements.items():
        capacity = {
            site: config.site_capacity / instances_per_site[site]
            for site in sites
        }
        vnfs.append(VNF(name, config.cpu_per_byte, capacity))
    return vnfs


def generate_chains(
    config: WorkloadConfig,
    nodes: Sequence[str],
    vnf_names: Sequence[str],
    matrix: TrafficMatrix,
    rng: random.Random,
) -> list[Chain]:
    """Generate the chain workload.

    Chain VNF lists are random subsets of the catalog sorted by catalog
    position -- the paper's "pre-determined order of VNFs" that makes all
    chains consistent with typical VNF sequencing.
    """
    order = {name: i for i, name in enumerate(vnf_names)}
    switchboard_total = config.total_traffic * config.switchboard_share

    picks: list[tuple[str, str, list[str]]] = []
    weights: list[float] = []
    for _ in range(config.num_chains):
        ingress, egress = rng.sample(list(nodes), 2)
        length = rng.randint(config.min_chain_length, config.max_chain_length)
        vnfs = sorted(rng.sample(list(vnf_names), length), key=order.__getitem__)
        picks.append((ingress, egress, vnfs))
        weights.append(matrix.row_sum(ingress))

    total_weight = sum(weights) or 1.0
    # Forward + reverse demand together sum to the Switchboard share.
    demand_norm = switchboard_total / (total_weight * (1.0 + REVERSE_RATIO))

    chains = []
    for i, ((ingress, egress, vnfs), weight) in enumerate(zip(picks, weights)):
        forward = weight * demand_norm
        chains.append(
            Chain(
                f"chain{i:05d}",
                ingress,
                egress,
                vnfs,
                forward_traffic=forward,
                reverse_traffic=forward * REVERSE_RATIO,
            )
        )
    return chains


def generate_workload(
    config: WorkloadConfig | None = None,
    backbone: Backbone | None = None,
) -> NetworkModel:
    """Build the complete NetworkModel for a Section 7.3-style simulation."""
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)
    if backbone is None:
        backbone = build_backbone(config.cities)

    matrix = gravity_traffic_matrix(backbone.cities, config.total_traffic)
    switchboard_matrix, background_matrix = split_switchboard_background(
        matrix, config.switchboard_share
    )
    links = apply_background(backbone, background_matrix)

    sites = [
        CloudSite(f"S-{node}", node, config.site_capacity)
        for node in backbone.nodes
    ]
    site_names = [s.name for s in sites]
    vnfs = place_vnfs(config, site_names, rng)
    chains = generate_chains(
        config, backbone.nodes, [v.name for v in vnfs], switchboard_matrix, rng
    )

    return NetworkModel(
        nodes=backbone.nodes,
        latency=backbone.latency,
        sites=sites,
        vnfs=vnfs,
        chains=chains,
        links=links,
        routing=backbone.routing,
    )
