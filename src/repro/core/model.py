"""The Switchboard network model (Table 1 of the paper).

The model captures four groups of parameters:

- *network*: nodes ``N``, pairwise delays ``d``, links ``E`` with
  bandwidths ``b_e``, background traffic ``g_e``, the routing fractions
  ``r_{n1 n2 e}`` (which fraction of traffic between two nodes crosses a
  link), and the maximum-link-utilization limit ``beta``;
- *cloud*: sites ``S`` (a subset of nodes) with compute capacity ``m_s``;
- *VNF*: the catalog ``F``, the sites ``S_f`` where each VNF is deployed
  with per-site capacity ``m_sf``, and the load per unit traffic ``l_f``;
- *chain*: customer chains ``C`` with ingress/egress nodes, ordered VNF
  lists ``F_c``, and per-stage forward/reverse traffic ``w_cz`` /
  ``v_cz``.

Stages are numbered ``z = 1 .. |F_c| + 1`` as in the paper: stage ``z``
is the logical link from the ``(z-1)``-th chain node to the ``z``-th,
where node 0 is the ingress and node ``|F_c| + 1`` is the egress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.core import canonical


class ModelError(Exception):
    """Raised when model construction or validation fails."""


@dataclass(frozen=True)
class CloudSite:
    """A cloud site colocated with network node ``node``.

    ``capacity`` is the maximum total compute load ``m_s`` across all VNFs
    hosted at the site (in abstract load units; the paper leaves the unit
    to the operator).
    """

    name: str
    node: str
    capacity: float

    def __post_init__(self) -> None:
        if not self.capacity >= 0:
            raise ModelError(f"site {self.name!r}: negative or NaN capacity")


@dataclass(frozen=True)
class VNF:
    """A VNF service in the catalog ``F``.

    ``load_per_unit`` is ``l_f``: compute load generated per unit of
    traffic through the VNF (the simulations in Section 7.3 call this
    CPU/byte).  ``site_capacity`` maps each deployment site in ``S_f`` to
    the VNF's capacity ``m_sf`` there.
    """

    name: str
    load_per_unit: float
    site_capacity: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.load_per_unit >= 0:
            raise ModelError(f"VNF {self.name!r}: negative or NaN load_per_unit")
        for site, cap in self.site_capacity.items():
            if not cap >= 0:
                raise ModelError(
                    f"VNF {self.name!r}: negative or NaN capacity at site {site!r}"
                )
        object.__setattr__(self, "site_capacity", dict(self.site_capacity))

    @property
    def sites(self) -> list[str]:
        """The deployment sites ``S_f``."""
        return list(self.site_capacity)

    def with_sites(self, extra: Mapping[str, float]) -> "VNF":
        """Return a copy deployed at additional sites (capacity planning)."""
        merged = dict(self.site_capacity)
        for site, cap in extra.items():
            merged[site] = merged.get(site, 0.0) + cap
        return VNF(self.name, self.load_per_unit, merged)


@dataclass(frozen=True)
class Link:
    """A directed physical link ``e`` with bandwidth ``b_e`` and
    non-Switchboard background traffic ``g_e`` (same unit as bandwidth).
    A zero bandwidth is a blocked link: nothing may cross it."""

    name: str
    src: str
    dst: str
    bandwidth: float
    background: float = 0.0

    def __post_init__(self) -> None:
        if not self.bandwidth >= 0:
            raise ModelError(f"link {self.name!r}: negative or NaN bandwidth")
        if not self.background >= 0:
            raise ModelError(f"link {self.name!r}: negative or NaN background traffic")


@dataclass(frozen=True)
class Chain:
    """A customer service chain ``c``.

    ``forward_traffic`` / ``reverse_traffic`` are the per-stage demands
    ``w_cz`` / ``v_cz`` for stages ``1 .. len(vnfs) + 1``.  Scalars are
    broadcast to all stages (the common case: VNFs that neither compress
    nor amplify traffic).  ``num_stages`` is ``|F_c| + 1``, the logical
    links between chain nodes, fixed at construction.
    """

    name: str
    ingress: str
    egress: str
    vnfs: tuple[str, ...]
    forward_traffic: tuple[float, ...]
    reverse_traffic: tuple[float, ...]

    def __init__(
        self,
        name: str,
        ingress: str,
        egress: str,
        vnfs: Sequence[str],
        forward_traffic: float | Sequence[float] = 1.0,
        reverse_traffic: float | Sequence[float] = 0.0,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ingress", ingress)
        object.__setattr__(self, "egress", egress)
        object.__setattr__(self, "vnfs", tuple(vnfs))
        stages = len(self.vnfs) + 1
        object.__setattr__(self, "num_stages", stages)
        object.__setattr__(
            self, "forward_traffic", _per_stage(forward_traffic, stages, name)
        )
        object.__setattr__(
            self, "reverse_traffic", _per_stage(reverse_traffic, stages, name)
        )

    def stage_traffic(self, z: int) -> float:
        """Combined forward + reverse demand ``w_cz + v_cz`` at stage ``z``."""
        self._check_stage(z)
        return self.forward_traffic[z - 1] + self.reverse_traffic[z - 1]

    def vnf_at(self, position: int) -> str:
        """The ``position``-th VNF (1-based): ``f_cz``."""
        if not 1 <= position <= len(self.vnfs):
            raise ModelError(
                f"chain {self.name!r}: VNF position {position} out of range"
            )
        return self.vnfs[position - 1]

    def _check_stage(self, z: int) -> None:
        if not 1 <= z <= self.num_stages:
            raise ModelError(f"chain {self.name!r}: stage {z} out of range")

    @cached_property
    def _document(self) -> str:
        """This chain's entry of the digest document, encoded once (a
        chain is immutable; a re-scaled chain is another object)."""
        return canonical.encode((
            self.name, self.ingress, self.egress, list(self.vnfs),
            list(self.forward_traffic), list(self.reverse_traffic),
        ))

    @cached_property
    def _structure_document(self) -> str:
        """The same with the demands reduced to positivity."""
        return canonical.encode((
            self.name, self.ingress, self.egress, list(self.vnfs),
            [w > 0 for w in self.forward_traffic],
            [v > 0 for v in self.reverse_traffic],
        ))

    def scaled(self, factor: float) -> "Chain":
        """Return a copy with all stage demands multiplied by ``factor``."""
        return Chain(
            self.name,
            self.ingress,
            self.egress,
            self.vnfs,
            tuple(w * factor for w in self.forward_traffic),
            tuple(v * factor for v in self.reverse_traffic),
        )


def _per_stage(
    value: float | Sequence[float], stages: int, chain: str
) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        values = (float(value),) * stages
    else:
        values = tuple(float(v) for v in value)
        if len(values) != stages:
            raise ModelError(
                f"chain {chain!r}: expected {stages} per-stage demands, "
                f"got {len(values)}"
            )
    if not all(0 <= v < math.inf for v in values):
        raise ModelError(f"chain {chain!r}: traffic demand not finite and non-negative")
    return values


def _hash_document(fragments: Mapping[str, str], **encoded: str) -> str:
    """Hex SHA-256 of the digest document made of the already-encoded
    ``fragments`` overlaid with the already-encoded ``encoded``: byte
    for byte the hash of ``canonical.encode({**decoded fragments,
    **decoded})``,
    with nothing encoded here."""
    merged = {**fragments, **encoded}
    body = ",".join(f'"{key}":{merged[key]}' for key in sorted(merged))
    return canonical.sha256_hex(f"{{{body}}}")


def _array(documents: Iterable[str]) -> str:
    """The JSON array of already-encoded ``documents``."""
    return f"[{','.join(documents)}]"


class NetworkModel:
    """The full model consumed by the traffic-engineering algorithms.

    Parameters
    ----------
    nodes:
        Network node names ``N``.
    latency:
        ``(n1, n2) -> one-way delay``.  Missing pairs default to the
        symmetric entry if present; diagonal defaults to 0.
    sites:
        Cloud sites ``S``; each must reference a known node.
    vnfs:
        The VNF catalog ``F``; each deployment site must be a known site.
    chains:
        Customer chains ``C``; every chain VNF must be in the catalog and
        ingress/egress must be known nodes.
    links / routing:
        Optional physical substrate: links ``E`` and routing fractions
        ``r_{n1 n2 e}`` as ``(n1, n2) -> {link_name: fraction}``.
    mlu_limit:
        The operator's maximum-link-utilization budget ``beta``.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        latency: Mapping[tuple[str, str], float],
        sites: Iterable[CloudSite] = (),
        vnfs: Iterable[VNF] = (),
        chains: Iterable[Chain] = (),
        links: Iterable[Link] = (),
        routing: Mapping[tuple[str, str], Mapping[str, float]] | None = None,
        mlu_limit: float = 1.0,
    ):
        self.nodes: list[str] = list(dict.fromkeys(nodes))
        if not self.nodes:
            raise ModelError("model needs at least one node")
        node_set = set(self.nodes)

        self._latency: dict[tuple[str, str], float] = {}
        for (n1, n2), d in latency.items():
            if n1 not in node_set or n2 not in node_set:
                raise ModelError(f"latency entry references unknown node: {n1}->{n2}")
            if not d >= 0:
                raise ModelError(f"negative or NaN latency {n1}->{n2}")
            self._latency[(n1, n2)] = float(d)

        self.sites: dict[str, CloudSite] = {}
        for site in sites:
            if site.node not in node_set:
                raise ModelError(f"site {site.name!r} on unknown node {site.node!r}")
            if site.name in self.sites:
                raise ModelError(f"duplicate site {site.name!r}")
            self.sites[site.name] = site

        self.vnfs: dict[str, VNF] = {}
        for vnf in vnfs:
            if vnf.name in self.vnfs:
                raise ModelError(f"duplicate VNF {vnf.name!r}")
            for s in vnf.site_capacity:
                if s not in self.sites:
                    raise ModelError(f"VNF {vnf.name!r} at unknown site {s!r}")
            self.vnfs[vnf.name] = vnf

        self.links: dict[str, Link] = {}
        for link in links:
            if link.src not in node_set or link.dst not in node_set:
                raise ModelError(f"link {link.name!r} references unknown node")
            if link.name in self.links:
                raise ModelError(f"duplicate link {link.name!r}")
            self.links[link.name] = link

        self.routing: dict[tuple[str, str], dict[str, float]] = {}
        if routing is not None:
            for (n1, n2), fractions in routing.items():
                for link_name, frac in fractions.items():
                    if link_name not in self.links:
                        raise ModelError(
                            f"routing for ({n1},{n2}) uses unknown link {link_name!r}"
                        )
                    if not 0 <= frac <= 1 + 1e-9:
                        raise ModelError(
                            f"routing fraction out of range for ({n1},{n2},{link_name})"
                        )
                self.routing[(n1, n2)] = dict(fractions)

        if not mlu_limit > 0:
            raise ModelError("mlu_limit must be positive (not NaN)")
        self.mlu_limit = float(mlu_limit)

        # Lazily built caches; the substrate ones are inherited by
        # copy_with_chains since that shares this substrate.
        self._substrate_columns = None
        self._chain_columns = None
        self._variable_columns = None
        self._substrate_json: dict[str, str] | None = None
        self._structure_json: dict[str, str] | None = None
        self._substrate_digest: str | None = None
        # The node list is immutable after construction; cache the set so
        # per-chain validation stays O(1) on 100k-chain workloads.
        self._node_set = node_set

        self.chains: dict[str, Chain] = {}
        for chain in chains:
            self.add_chain(chain)

    # -- chain management ----------------------------------------------

    def add_chain(self, chain: Chain) -> None:
        if chain.name in self.chains:
            raise ModelError(f"duplicate chain {chain.name!r}")
        if chain.ingress not in self._node_set:
            raise ModelError(
                f"chain {chain.name!r}: unknown ingress {chain.ingress!r}"
            )
        if chain.egress not in self._node_set:
            raise ModelError(f"chain {chain.name!r}: unknown egress {chain.egress!r}")
        for vnf_name in chain.vnfs:
            vnf = self.vnfs.get(vnf_name)
            if vnf is None:
                raise ModelError(f"chain {chain.name!r}: unknown VNF {vnf_name!r}")
            if not vnf.site_capacity:
                raise ModelError(
                    f"chain {chain.name!r}: VNF {vnf_name!r} has no deployment sites"
                )
        self.chains[chain.name] = chain
        self._chain_columns = None
        self._variable_columns = None

    def remove_chain(self, name: str) -> None:
        if name not in self.chains:
            raise ModelError(f"unknown chain {name!r}")
        del self.chains[name]
        self._chain_columns = None
        self._variable_columns = None

    def invalidate_substrate(self) -> None:
        """Drop every cached substrate-derived view.

        Must be called after mutating substrate state in place (the
        sanctioned cases are in ``controller.failures``: flipping
        ``_latency`` entries and swapping ``sites`` / ``vnfs`` catalogue
        entries); chain columns are dropped too because they embed
        substrate indices, and the encoded substrate document because
        digests must reflect the new values.  This is the only
        invalidation point: everything derived from the substrate hangs
        off one of these fields (see the cache table in DESIGN.md).
        """
        self._substrate_columns = None
        self._chain_columns = None
        self._variable_columns = None
        self._substrate_json = None
        self._structure_json = None
        self._substrate_digest = None

    # -- columnar views -------------------------------------------------

    def substrate_columns(self):
        """Cached :class:`~repro.core.columns.SubstrateColumns` view."""
        if self._substrate_columns is None:
            from repro.core.columns import SubstrateColumns

            self._substrate_columns = SubstrateColumns(self)
        return self._substrate_columns

    def chain_columns(self):
        """Cached :class:`~repro.core.columns.ChainColumns` view."""
        if self._chain_columns is None:
            from repro.core.columns import ChainColumns

            self._chain_columns = ChainColumns(self, self.substrate_columns())
        return self._chain_columns

    def variable_columns(self):
        """Cached LP variable expansion (see ``core/columns.py``)."""
        if self._variable_columns is None:
            from repro.core.columns import build_variable_columns

            self._variable_columns = build_variable_columns(
                self.substrate_columns(), self.chain_columns()
            )
        return self._variable_columns

    # -- lookups --------------------------------------------------------

    def latency(self, n1: str, n2: str) -> float:
        """One-way delay ``d_{n1 n2}`` (symmetric fallback, 0 diagonal)."""
        if (n1, n2) in self._latency:
            return self._latency[(n1, n2)]
        if (n2, n1) in self._latency:
            return self._latency[(n2, n1)]
        if n1 == n2:
            return 0.0
        raise ModelError(f"no latency entry for {n1!r} -> {n2!r}")

    def site_latency(self, a: str, b: str) -> float:
        """Delay between two endpoints given as site names *or* node names."""
        return self.latency(self.endpoint_node(a), self.endpoint_node(b))

    def endpoint_node(self, name: str) -> str:
        """Resolve a site name or node name to its network node."""
        if name in self.sites:
            return self.sites[name].node
        return name

    def vnf_sites(self, vnf_name: str) -> list[str]:
        """Deployment sites ``S_f`` of a VNF."""
        return self.vnfs[vnf_name].sites

    # -- stage endpoints (Equations 1 and 2) -----------------------------

    def stage_sources(self, chain: Chain, z: int) -> list[str]:
        """``N^src_cz``: ingress node at stage 1, else sites of VNF z-1.

        Site names are returned for VNF stages and the raw node name for
        the ingress, mirroring the paper's mixed node/site formulation.
        """
        chain._check_stage(z)
        if z == 1:
            return [chain.ingress]
        return self.vnf_sites(chain.vnf_at(z - 1))

    def stage_destinations(self, chain: Chain, z: int) -> list[str]:
        """``N^dst_cz``: egress node at the last stage, else sites of VNF z."""
        chain._check_stage(z)
        if z == chain.num_stages:
            return [chain.egress]
        return self.vnf_sites(chain.vnf_at(z))

    # -- link routing -----------------------------------------------------

    def route_fraction(self, n1: str, n2: str, link_name: str) -> float:
        """``r_{n1 n2 e}``: fraction of ``n1``->``n2`` traffic crossing a link."""
        return self.routing.get((n1, n2), {}).get(link_name, 0.0)

    def links_between(self, n1: str, n2: str) -> dict[str, float]:
        """All links carrying ``n1``->``n2`` traffic with their fractions."""
        return dict(self.routing.get((n1, n2), {}))

    def link_headroom(self, link: Link) -> float:
        """Capacity available to Switchboard on a link under the MLU budget."""
        return max(0.0, self.mlu_limit * link.bandwidth - link.background)

    # -- identity ---------------------------------------------------------

    def digest(self, chains: "Iterable[str | Chain] | None" = None) -> str:
        """A stable content hash of the model (hex SHA-256).

        The digest covers everything the traffic-engineering algorithms
        read: nodes, latencies, sites, VNF catalog and deployments,
        links, routing fractions, the MLU budget, and every chain with
        its per-stage demands.  Two models built independently from the
        same parameters produce the same digest, regardless of insertion
        order, so the digest is usable as a solver-cache key and for
        snapshot tests across serialization round-trips.

        ``chains`` optionally replaces the chain portion of the digest:
        a name picks that chain of this model (unknown names raise
        :class:`ModelError`), a :class:`Chain` is hashed as given; the
        substrate portion is always included.  The result is the digest
        of ``copy_with_chains`` of those chains, which is how the solver
        farm keys a partition without building its sub-model
        (:meth:`repro.scale.partition.PartitionPlan.key`).  Only the
        chains that are new objects since their last digest are encoded
        (each :class:`Chain` keeps its own entry of the document).
        """
        if chains is None:
            chains = self.chains.values()
        by_name: dict[str, Chain] = {}
        unknown = []
        for chain in chains:
            if isinstance(chain, str):
                name, chain = chain, self.chains.get(chain)
                if chain is None:
                    unknown.append(name)
                    continue
            by_name[chain.name] = chain
        if unknown:
            raise ModelError(f"digest over unknown chains: {sorted(set(unknown))}")
        return _hash_document(
            self._substrate_fragments(),
            chains=_array(by_name[name]._document for name in sorted(by_name)),
        )

    def substrate_digest(self) -> str:
        """A stable content hash of the substrate alone (hex SHA-256).

        Covers nodes, latencies, sites, the VNF catalog, links, routing
        fractions, and the MLU budget -- everything except the chains.
        Used by :class:`repro.scale.partition.PartitionPlan` to detect
        substrate edits (``fail_link``/``restore_link``) that must
        invalidate a stored partitioning even though the chain set is
        unchanged, and by ``repro.federation`` as the shard-map identity.
        Cached with the substrate (and shared with ``copy_with_chains``
        copies) until :meth:`invalidate_substrate`.
        """
        if self._substrate_digest is None:
            self._substrate_digest = _hash_document(self._substrate_fragments())
        return self._substrate_digest

    def _substrate_fragments(self) -> dict[str, str]:
        """The substrate portion of the digest document, one encoded JSON
        fragment per key (cached).

        Sorting, flattening and encoding the latency and routing tables
        dominates digest cost (the solver farm digests once per
        partition per round), so it is done once per substrate and
        shared with ``copy_with_chains`` copies; every digest splices
        its chain fragment (itself spliced from per-chain entries)
        into these.
        """
        if self._substrate_json is None:
            document = {
                "nodes": sorted(self.nodes),
                "latency": sorted(
                    (n1, n2, d) for (n1, n2), d in self._latency.items()
                ),
                "routing": sorted(
                    (n1, n2, sorted(fractions.items()))
                    for (n1, n2), fractions in self.routing.items()
                ),
                "mlu_limit": self.mlu_limit,
            }
            self._substrate_json = {
                **{k: canonical.encode(v) for k, v in document.items()},
                **self._capacity_fragments(),
            }
        return self._substrate_json

    def _capacity_fragments(self) -> dict[str, str]:
        """The three fragments that hold capacity magnitudes."""
        return {
            "sites": canonical.encode(sorted(
                (s.name, s.node, s.capacity) for s in self.sites.values()
            )),
            "vnfs": canonical.encode(sorted(
                (v.name, v.load_per_unit, sorted(v.site_capacity.items()))
                for v in self.vnfs.values()
            )),
            "links": canonical.encode(sorted(
                (link.name, link.src, link.dst, link.bandwidth, link.background)
                for link in self.links.values()
            )),
        }

    def _structure_fragments(self) -> dict[str, str]:
        """:meth:`_substrate_fragments` with every capacity magnitude
        left out (cached with them): capacities only reach the routing
        program's right-hand side, which every solve recomputes."""
        if self._structure_json is None:
            self._structure_json = {
                **self._substrate_fragments(),
                "sites": canonical.encode(sorted((s.name, s.node) for s in self.sites.values())),
                "vnfs": canonical.encode(sorted(
                    (v.name, v.load_per_unit, sorted(v.site_capacity))
                    for v in self.vnfs.values()
                )),
                "links": canonical.encode(sorted(
                    (link.name, link.src, link.dst) for link in self.links.values()
                )),
            }
        return self._structure_json

    def _chain_structure_document(self) -> str:
        """Chains in iteration order with demands reduced to positivity."""
        return _array(c._structure_document for c in self.chains.values())

    def structure_digest(self) -> str:
        """Hash of the LP matrix *structure* this model induces.

        Unlike :meth:`digest`, demand magnitudes are excluded (only
        their zero/non-zero pattern matters to matrix sparsity), so are
        site, (VNF, site) and link capacity magnitudes (they are the
        right-hand side, refreshed at every solve like the demands),
        and chains are listed in iteration order (which fixes variable
        order).  Two models with equal structure digests produce
        constraint matrices with identical sparsity patterns and
        identical demand-independent entries, which is the contract the
        LP matrix caches rely on (see DESIGN.md).
        """
        return _hash_document(
            self._structure_fragments(),
            chain_structure=self._chain_structure_document(),
        )

    def capacity_structure_digest(self) -> str:
        """Hash of the capacity-planning LP structure this model induces.

        Like :meth:`structure_digest`, but site capacities and per-site
        VNF capacities are reduced to positivity flags: the cloud
        capacity planner refreshes those magnitudes into the RHS and the
        relief coefficients on every solve, so a budget sweep over
        proportionally grown models reuses one cached matrix structure.
        """
        capacity_free = self._structure_fragments()
        return _hash_document(
            {**self._substrate_fragments(), "vnfs": capacity_free["vnfs"]},
            sites=canonical.encode(sorted(
                (s.name, s.node, s.capacity > 0) for s in self.sites.values()
            )),
            chain_structure=self._chain_structure_document(),
        )

    # -- aggregate views --------------------------------------------------

    def total_demand(self) -> float:
        """Sum of stage-1 forward+reverse demand across chains (offered load)."""
        return sum(c.stage_traffic(1) for c in self.chains.values())

    def copy_with_chains(self, chains: Iterable[Chain]) -> "NetworkModel":
        """A model sharing this substrate but with a different chain set.

        The substrate was validated when this model was built, so it is
        copied (a later in-place edit of either model must not reach the
        other) but not re-validated; every chain still goes through
        :meth:`add_chain`.
        """
        clone = object.__new__(NetworkModel)
        clone.nodes = list(self.nodes)
        clone._node_set = self._node_set
        clone._latency = dict(self._latency)
        clone.sites = dict(self.sites)
        clone.vnfs = dict(self.vnfs)
        clone.links = dict(self.links)
        clone.routing = {pair: dict(f) for pair, f in self.routing.items()}
        clone.mlu_limit = self.mlu_limit
        # The substrate is shared, so its caches carry over.
        clone._substrate_columns = self._substrate_columns
        clone._substrate_json = self._substrate_json
        clone._structure_json = self._structure_json
        clone._substrate_digest = self._substrate_digest
        clone._chain_columns = None
        clone._variable_columns = None
        clone.chains = {}
        for chain in chains:
            clone.add_chain(chain)
        return clone

    def copy_with_capacities(
        self, sites: Iterable[CloudSite], vnfs: Iterable[VNF], links: Iterable[Link]
    ) -> "NetworkModel":
        """A chain-less model on this topology under other capacities.

        ``sites``, ``vnfs`` and ``links`` must be this model's catalogs
        entry for entry, in order, with only capacity magnitudes changed.
        The copy is *derived*, not rebuilt: nothing is re-validated, and
        the latency / routing / node fragments, the capacity-free
        fragments and the topology part of the columns
        (:meth:`SubstrateColumns.rescaled`) are this model's own.
        """
        clone = self.copy_with_chains(())
        clone.sites = {site.name: site for site in sites}
        clone.vnfs = {vnf.name: vnf for vnf in vnfs}
        clone.links = {link.name: link for link in links}
        if (
            list(clone.sites) != list(self.sites)
            or list(clone.links) != list(self.links)
            or [(v.name, v.sites) for v in clone.vnfs.values()]
            != [(v.name, v.sites) for v in self.vnfs.values()]
        ):
            raise ModelError("copy_with_capacities: more than capacities differ")
        clone._substrate_json = {
            **self._substrate_fragments(), **clone._capacity_fragments()
        }
        clone._structure_json = self._structure_fragments()
        clone._substrate_digest = None
        clone._substrate_columns = self.substrate_columns().rescaled(clone)
        return clone

    def copy_with_vnfs(self, vnfs: Iterable[VNF]) -> "NetworkModel":
        """A model sharing this substrate but with a different VNF catalog."""
        return NetworkModel(
            nodes=self.nodes,
            latency=self._latency,
            sites=self.sites.values(),
            vnfs=vnfs,
            chains=self.chains.values(),
            links=self.links.values(),
            routing=self.routing,
            mlu_limit=self.mlu_limit,
        )

    def copy_with_sites(self, sites: Iterable[CloudSite]) -> "NetworkModel":
        """A model sharing this substrate but with different site capacities."""
        return NetworkModel(
            nodes=self.nodes,
            latency=self._latency,
            sites=sites,
            vnfs=self.vnfs.values(),
            chains=self.chains.values(),
            links=self.links.values(),
            routing=self.routing,
            mlu_limit=self.mlu_limit,
        )

    def __repr__(self) -> str:
        return (
            f"NetworkModel(nodes={len(self.nodes)}, sites={len(self.sites)}, "
            f"vnfs={len(self.vnfs)}, chains={len(self.chains)}, "
            f"links={len(self.links)})"
        )
