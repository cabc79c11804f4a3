"""Chain-set partitioning for the solver farm.

The monolithic SB-LP routes every chain jointly, which is what makes it
optimal -- and what makes its solve time grow superlinearly with the
chain count (Section 7 of the paper; the authors report CPLEX runs of up
to three hours at 10 000 chains).  This module splits a
:class:`~repro.core.model.NetworkModel`'s chain set into *partitions*
that can be solved as independent, much smaller programs:

1. Chains are grouped by **resource coupling**: two chains belong to the
   same coupling group when they can load the same (VNF, site) capacity,
   the same site capacity, or the same physical link.  Distinct coupling
   groups share no constraint of the LP, so solving them separately and
   merging the results is *exactly* equivalent to the monolithic solve
   (the merged program's constraint matrix is block-diagonal).

2. A coupling group larger than ``max_chains`` is split further, and
   each shared resource's budget (compute capacity, link headroom) is
   divided among the subgroups **proportionally to the demand** each
   subgroup can place on it.  The merged solution is always feasible for
   the original program -- per-resource shares sum to the original
   capacity -- but may be suboptimal, because a subgroup cannot borrow
   capacity another subgroup leaves idle.

3. A plan is **maintained** across chain-set changes the way the
   paper's controller treats installed chains (Section 4.4, Figure 10:
   a new route is fitted in, "existing route unaffected"): the plan
   keeps, per chain, the chain as planned, its per-stage link sets, its
   resource set and its weights, plus one SB-DP router holding every
   chain's pre-route, and
   :func:`partition_chains` given that plan as ``previous`` re-derives
   only what changed -- see there for exactly what is carried.  Shares
   always reflect the demands as of the last re-plan; a plan built from
   nothing is the same code with nothing to carry.

4. Between re-plans a plan also keeps what a *run* would otherwise
   rebuild per partition: the scaled substrate of a split partition and
   (:meth:`PartitionPlan.key`) the partition's cache key, for as long as
   every one of its chains is the same object.  A substrate edit replaces
   the plan and with it everything it holds.

Optimality-gap contract (documented, checked by
``tests/test_scale_properties.py`` and
``benchmarks/bench_scale_solver_farm.py``):

- ``PartitionPlan.exact`` is ``True`` when no coupling group was split;
  the merged objective then equals the monolithic objective (up to LP
  tolerance).
- When groups are split, the gap is workload-dependent.  With capacity
  headroom >= the demand imbalance between subgroups the gap is near
  zero; :data:`DEFAULT_GAP_TOLERANCE` (15% relative) is the bound the
  benchmarks assert on the paper-style workloads.  Tightly coupled link
  budgets (many chains contending for one bottleneck link) are the case
  where proportional splitting is *not* close to optimal -- prefer
  larger ``max_chains`` or the monolithic solver there (see
  "Scaling the controller" in README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Iterable, Mapping

from repro.core.dp import DpConfig, IncrementalDpRouter
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF

#: Relative objective gap the split-partition farm is expected to stay
#: within on the benchmark workloads (see module docstring).
DEFAULT_GAP_TOLERANCE = 0.15

#: Links keep at least this fraction of their bandwidth in a sub-model so
#: the :class:`~repro.core.model.Link` validation (bandwidth > 0) holds
#: even for a subgroup whose demand share of the link rounds to zero.
_MIN_LINK_SHARE = 1e-9

ResourceKey = tuple  # ("site", s) | ("vnf", f, s) | ("link", name)


class PartitionError(Exception):
    """Raised on malformed partitioning requests."""


@dataclass(frozen=True)
class Partition:
    """One independently solvable slice of the chain set."""

    index: int
    chains: tuple[str, ...]
    #: True when the partition is a full coupling group solved against
    #: unscaled capacities (its slice of the program is exact).
    exact: bool


@dataclass(slots=True, eq=False)
class _ChainFacts:
    """What a plan knows about one chain.  All of it follows from the
    substrate and the chain alone (the weights also from the pre-route
    the chain met), so it stays true until either changes."""

    chain: Chain
    structure: tuple
    #: Per stage, the links its traffic could cross (:func:`_stage_links`).
    stage_links: list[set[ResourceKey]]
    resources: set[ResourceKey]
    #: Proportional-split weights, ``None`` while no coupling group is
    #: split (then nothing is pre-routed either).
    weights: dict[ResourceKey, float] | None = None


class PartitionPlan:
    """A partitioning of one model's chains, reusable across demands and
    maintained across chain-set changes.

    Membership and capacity shares are fixed when the plan is built, so
    later demand changes (the re-optimization path) leave unchanged
    partitions bit-identical -- which is what lets the solution cache
    serve them without re-solving.  Besides the partitions the plan
    holds what they were derived from -- per chain the chain as planned,
    its link sets, resource set and weights, and the SB-DP router holding every
    chain's pre-route -- so that :func:`partition_chains` can carry it
    all into the successor plan for every chain that did not change.
    """

    def __init__(
        self,
        partitions: list[Partition],
        shares: dict[int, dict[ResourceKey, float]],
        facts: dict[str, _ChainFacts],
        substrate_digest: str | None = None,
        router: IncrementalDpRouter | None = None,
        group_first: tuple[int, ...] = (),
    ):
        self.partitions = partitions
        self._shares = shares
        self._facts = facts
        #: The pre-route of every chain, on the plan's own chain-less copy
        #: of the substrate (``None`` while no coupling group is split).
        self._router = router
        #: Partition index -> first partition of its coupling group: a
        #: partition is seat ``index - first`` of that group.
        self._group_first = group_first
        #: Substrate content hash at build time.  The coupling groups,
        #: the DP pre-route, and the proportional link shares all depend
        #: on the substrate, so a plan must not outlive substrate edits
        #: (``fail_link``/``restore_link`` mutate latencies in place and
        #: only call ``invalidate_substrate()``).
        self.substrate_digest = substrate_digest
        #: Split partition index -> its scaled substrate (no chains),
        #: built on first use; :meth:`key` digests against it and
        #: :meth:`submodel` clones it.
        self._templates: dict[int, NetworkModel] = {}
        #: Partition index -> (the chains it was last keyed for, their
        #: key): good for as long as every chain is that same object.
        self._keys: dict[int, tuple[list[Chain], str]] = {}
        self.chain_partition: dict[str, int] = {}
        for part in partitions:
            for name in part.chains:
                self.chain_partition[name] = part.index

    @property
    def exact(self) -> bool:
        """True when every partition is a full coupling group."""
        return all(p.exact for p in self.partitions)

    def compatible_with(self, model: NetworkModel) -> bool:
        """Whether the plan still describes ``model``'s chain set.

        Demand magnitudes may differ (that is the point of reuse);
        names, chain structure (ingress/egress/VNF list and which stage
        demands are non-zero -- a chain's resource set, hence what it
        needs a share of, depends on that), and the substrate identity
        captured at build time must match.  A substrate edit (e.g. a
        link failure flipping latencies to ``inf`` mid-round) changes
        the substrate digest and forces a replan -- the stored shares
        were computed against pre-edit link budgets and routing.
        """
        if (
            self.substrate_digest is not None
            and self.substrate_digest != model.substrate_digest()
        ):
            return False
        if model.chains.keys() != self._facts.keys():
            return False
        return all(
            model.chains[name] is known.chain
            or _chain_structure(model.chains[name]) == known.structure
            for name, known in self._facts.items()
        )

    def partitions_for(self, chains: Iterable[str]) -> set[int]:
        """Indices of the partitions containing any of ``chains``."""
        indices = set()
        for name in chains:
            index = self.chain_partition.get(name)
            if index is None:
                raise PartitionError(f"chain {name!r} is not in the plan")
            indices.add(index)
        return indices

    def share(self, index: int, resource: ResourceKey) -> float:
        """Partition ``index``'s budget share of ``resource`` (1.0 when
        the resource is not contended across split subgroups)."""
        return self._shares.get(index, {}).get(resource, 1.0)

    def _substrate(self, model: NetworkModel, index: int) -> NetworkModel:
        """What partition ``index`` is solved on: ``model`` itself for an
        exact partition, else ``model``'s substrate (no chains) with
        capacities and link budgets scaled by the partition's shares.
        The scaled substrate, its columns and its encoded digest
        document are built once per plan (a plan never outlives its
        substrate, see :meth:`compatible_with`)."""
        shares = self._shares.get(index)
        if not shares:
            return model
        template = self._templates.get(index)
        if template is None:
            template = self._templates[index] = _scaled_substrate(model, shares)
        return template

    def key(self, model: NetworkModel, index: int) -> str:
        """``submodel(model, index).digest()`` without the sub-model.

        Carried from the last call while every chain of the partition is
        the same object it was then (a :class:`Chain` is immutable, and
        the substrate and the shares are the plan's own); otherwise the
        partition's substrate digests the chains, of which only the new
        objects are encoded."""
        chains = [model.chains[name] for name in self.partitions[index].chains]
        held = self._keys.get(index)
        if held is None or not all(map(is_, chains, held[0])):
            held = self._keys[index] = (
                chains, self._substrate(model, index).digest(chains)
            )
        return held[1]

    def submodel(self, model: NetworkModel, index: int) -> NetworkModel:
        """Build partition ``index``'s solve model from current demands:
        its substrate (:meth:`_substrate`) under its chains."""
        part = self.partitions[index]
        return self._substrate(model, index).copy_with_chains(
            [model.chains[name] for name in part.chains]
        )


def _scaled_substrate(
    model: NetworkModel, shares: Mapping[ResourceKey, float]
) -> NetworkModel:
    """``model``'s substrate with every budget cut to ``shares``, derived
    from it (only the capacities are new); its clones share one set of
    columns and one encoded digest document."""
    vnfs = []
    for vnf in model.vnfs.values():
        scaled = {
            site: cap * shares.get(("vnf", vnf.name, site), 1.0)
            for site, cap in vnf.site_capacity.items()
        }
        vnfs.append(VNF(vnf.name, vnf.load_per_unit, scaled))
    sites = [
        CloudSite(s.name, s.node, s.capacity * shares.get(("site", s.name), 1.0))
        for s in model.sites.values()
    ]
    links = []
    for link in model.links.values():
        share = max(shares.get(("link", link.name), 1.0), _MIN_LINK_SHARE)
        links.append(
            Link(
                link.name,
                link.src,
                link.dst,
                link.bandwidth * share,
                link.background * share,
            )
        )
    return model.copy_with_capacities(sites, vnfs, links)


def _chain_structure(chain: Chain) -> tuple:
    """The identity of a chain that a demand change leaves alone: its
    shape and which of its stage demands are non-zero."""
    return (
        chain.ingress,
        chain.egress,
        chain.vnfs,
        tuple(w > 0 for w in chain.forward_traffic),
        tuple(v > 0 for v in chain.reverse_traffic),
    )


def _stage_links(model: NetworkModel, chain: Chain) -> list[set[ResourceKey]]:
    """Per stage, every link the stage's traffic could cross (empty for
    a stage without demand, or a model without routing)."""
    stages: list[set[ResourceKey]] = [set() for _ in range(chain.num_stages)]
    if not model.routing:
        return stages
    sub = model.substrate_columns()
    fronts = sub.chain_fronts(chain, model)
    for z, links in enumerate(stages, start=1):
        fwd = chain.forward_traffic[z - 1] > 0
        rev = chain.reverse_traffic[z - 1] > 0
        if fwd or rev:
            forward, reverse = sub.candidate_links(fronts[z - 1], fronts[z])
            names = (forward if fwd else ()) + (reverse if rev else ())
            links.update(("link", name) for name in names)
    return stages


def _resources(
    model: NetworkModel, chain: Chain, stage_links: list[set[ResourceKey]]
) -> set[ResourceKey]:
    """:func:`chain_resources` given the chain's :func:`_stage_links`."""
    resources: set[ResourceKey] = set().union(*stage_links)
    for z in range(1, chain.num_stages):
        for site in model.stage_destinations(chain, z):
            resources.add(("vnf", chain.vnf_at(z), site))
            resources.add(("site", site))
    return resources


def chain_resources(model: NetworkModel, chain: Chain) -> set[ResourceKey]:
    """Every capacity resource the chain's LP variables can touch."""
    return _resources(model, chain, _stage_links(model, chain))


#: Fraction of a chain's stage traffic spread uniformly over every link
#: it *could* use, on top of the full weight placed on its predicted
#: usage.  Keeps overflow links available to the subgroup without
#: diluting the bottleneck-link shares that matter.
_LINK_OVERFLOW_WEIGHT = 0.1


def _link_usage(
    router: IncrementalDpRouter, chain: Chain
) -> dict[ResourceKey, float]:
    """Link traffic of one chain's SB-DP pre-route.

    The best proportional link shares are the shares of the *optimal*
    solution's link usage (a partition can then always reproduce its
    slice of the monolithic routing).  The SB-DP heuristic approximates
    that equilibrium at a tiny fraction of the LP's cost, so its
    per-chain link traffic is the default weighting for split link
    budgets.  Chains SB-DP leaves (partially) unrouted keep whatever
    usage their routed fraction generates; the latency-path weights in
    :func:`_chain_resource_weights` fill in for fully unrouted chains.
    """
    model = router.model
    usage: dict[ResourceKey, float] = {}
    for z in range(1, chain.num_stages + 1):
        for (src, dst), frac in router.solution.stage_flows(chain.name, z).items():
            n1 = model.endpoint_node(src)
            n2 = model.endpoint_node(dst)
            fwd = chain.forward_traffic[z - 1] * frac
            rev = chain.reverse_traffic[z - 1] * frac
            if fwd > 0:
                for link, f in model.links_between(n1, n2).items():
                    key = ("link", link)
                    usage[key] = usage.get(key, 0.0) + fwd * f
            if rev > 0:
                for link, f in model.links_between(n2, n1).items():
                    key = ("link", link)
                    usage[key] = usage.get(key, 0.0) + rev * f
    return usage


def _latency_path(model: NetworkModel, chain: Chain) -> list[str]:
    """The chain's minimum-latency site sequence, capacities ignored.

    A tiny Equation 8 DP over propagation delay only; used to predict
    which links a chain will actually load so the partitioner's
    proportional link shares concentrate where the traffic goes (a
    uniform could-touch weighting starves bottleneck links badly).
    """
    prev_cost: dict[str, float] = {chain.ingress: 0.0}
    parents: list[dict[str, str]] = []
    for z in range(1, chain.num_stages + 1):
        cost: dict[str, float] = {}
        parent: dict[str, str] = {}
        for dst in model.stage_destinations(chain, z):
            best, best_src = float("inf"), None
            for src, base in prev_cost.items():
                step = base + model.site_latency(src, dst)
                if step < best:
                    best, best_src = step, src
            if best_src is not None:
                cost[dst] = best
                parent[dst] = best_src
        parents.append(parent)
        prev_cost = cost
    path = [chain.egress]
    current = chain.egress
    for parent in reversed(parents):
        current = parent[current]
        path.append(current)
    path.reverse()
    return path


def _chain_resource_weights(
    model: NetworkModel,
    chain: Chain,
    stage_links: list[set[ResourceKey]],
    link_usage: Mapping[ResourceKey, float] | None = None,
) -> dict[ResourceKey, float]:
    """Demand each chain can place on a resource (the proportional-split
    weights).

    Compute weights mirror Equation 4's load accounting, spread over
    every deployment site (the LP is free to use any of them, and a
    uniform per-site ratio keeps each subgroup's total capacity for a
    VNF proportional to its demand).  Link weights come from the SB-DP
    pre-route (``link_usage``), falling back to the chain's latency-best
    path when the pre-route carried nothing for it; every other link
    the chain could use (``stage_links``) gets a small uniform share
    (:data:`_LINK_OVERFLOW_WEIGHT`) so overflow routing stays possible.
    """
    weights: dict[ResourceKey, float] = {}
    if link_usage:
        weights.update(link_usage)
        path = None
    else:
        path = _latency_path(model, chain) if model.routing else None
    for z, overflow in enumerate(stage_links, start=1):
        if z < chain.num_stages:
            vnf_name = chain.vnf_at(z)
            load = model.vnfs[vnf_name].load_per_unit * (
                chain.stage_traffic(z) + chain.stage_traffic(z + 1)
            )
            for site in model.stage_destinations(chain, z):
                key = ("vnf", vnf_name, site)
                weights[key] = weights.get(key, 0.0) + load
                skey = ("site", site)
                weights[skey] = weights.get(skey, 0.0) + load
        if not model.routing:
            continue
        fwd = chain.forward_traffic[z - 1]
        rev = chain.reverse_traffic[z - 1]
        if fwd <= 0 and rev <= 0:
            continue
        if path is not None:
            n1 = model.endpoint_node(path[z - 1])
            n2 = model.endpoint_node(path[z])
            if fwd > 0:
                for name, f in model.links_between(n1, n2).items():
                    key = ("link", name)
                    weights[key] = weights.get(key, 0.0) + fwd * f
            if rev > 0:
                for name, f in model.links_between(n2, n1).items():
                    key = ("link", name)
                    weights[key] = weights.get(key, 0.0) + rev * f
        for key in overflow:
            if weights.get(key, 0.0) <= 0.0:
                weights[key] = weights.get(key, 0.0) + (
                    _LINK_OVERFLOW_WEIGHT * (fwd + rev)
                )
    return weights


def _coupled(resources: Mapping[str, Iterable[ResourceKey]]) -> list[list[str]]:
    """Names grouped by shared resources, deterministically ordered."""
    group: dict[str, list[str]] = {}  # name -> the member list its group shares
    owner: dict[ResourceKey, str] = {}
    for name, keys in resources.items():
        members = group[name] = [name]
        # every distinct name seen so far that holds one of ``keys``
        for other in set(map(owner.get, keys)) - {None}:
            joined = group[other]
            if joined is not members:
                if len(joined) > len(members):
                    members, joined = joined, members
                members += joined
                for moved in joined:
                    group[moved] = members
        owner.update(dict.fromkeys(keys, name))
    return sorted({id(m): sorted(m) for m in group.values()}.values())


def coupling_groups(model: NetworkModel) -> list[list[str]]:
    """Chains grouped by shared resources, deterministically ordered."""
    return _coupled({
        name: chain_resources(model, chain) for name, chain in model.chains.items()
    })


def _deal(group: list[str], count: int, held: Mapping[str, int]) -> list[list[str]]:
    """Seat a name-ordered coupling group on ``count`` seats: ``held``
    members sit where they sat, the others go one by one to the
    least-filled seat (the lowest on a tie) -- ``group[i::count]`` when
    nobody holds a seat.  Seats come back name-ordered."""
    seats: list[list[str]] = [[] for _ in range(count)]
    for name, seat in held.items():
        seats[seat].append(name)
    for name in group:
        if name not in held:
            min(seats, key=len).append(name)
    return [sorted(seat) for seat in seats]


def _tally(
    names: Iterable[str], facts: Mapping[str, _ChainFacts]
) -> dict[ResourceKey, float]:
    """Per resource, the summed weight of ``names``."""
    weight: dict[ResourceKey, float] = {}
    for name in names:
        for resource, w in facts[name].weights.items():
            weight[resource] = weight.get(resource, 0.0) + w
    return weight


def partition_chains(
    model: NetworkModel,
    max_chains: int | None = 16,
    previous: PartitionPlan | None = None,
) -> PartitionPlan:
    """Partition the model's chains for independent solving.

    ``max_chains`` caps the partition size; ``None`` keeps every
    coupling group whole (always exact, but a fully coupled workload
    then degenerates to the monolithic solve).

    ``previous`` is the plan this one replaces (and uses up: its router
    moves here).  If it was built on the same substrate, a chain it
    holds *identically* -- shape, demand pattern and demands -- is
    carried whole: facts, pre-route and seat.  A re-scaled chain keeps
    its resource set and its seat but is pre-routed and weighed again; a
    new chain, or one whose shape or demand pattern changed, is derived
    from nothing; what left is rolled back out of the pre-route.  The
    shares therefore reflect the demands as of this call, exactly as
    those of a plan built from nothing do -- which is this same code
    with nothing to carry: the pre-route is then ``route_chains_dp``
    over the model and the seats are ``group[i::n]``.
    """
    if not model.chains:
        raise PartitionError("model has no chains to partition")
    if max_chains is not None and max_chains < 1:
        raise PartitionError("max_chains must be positive")

    digest = model.substrate_digest()
    if previous is not None and previous.substrate_digest != digest:
        previous = None
    old = previous._facts if previous is not None else {}
    facts: dict[str, _ChainFacts] = {}
    for name, chain in model.chains.items():
        known = old.get(name)
        if known is None or known.chain != chain:
            structure = _chain_structure(chain)
            if known is not None and known.structure == structure:
                known = _ChainFacts(
                    chain, structure, known.stage_links, known.resources
                )
            else:
                links = _stage_links(model, chain)
                known = _ChainFacts(
                    chain, structure, links, _resources(model, chain, links)
                )
        facts[name] = known

    groups = _coupled({name: known.resources for name, known in facts.items()})
    counts = [
        1 if max_chains is None else -(-len(group) // max_chains)
        for group in groups
    ]
    router = previous._router if previous is not None else None
    if max(counts) == 1:
        router = None
        for known in facts.values():
            known.weights = None
    else:
        # Splitting divides shared budgets, so the quality of the split
        # hinges on predicting where each chain's traffic really lands:
        # every chain is routed once by SB-DP, against what the chains
        # routed before it left behind, and its link usage weighs it.
        if router is None and model.routing:
            router = IncrementalDpRouter(
                model.copy_with_chains(()), DpConfig(max_paths_per_chain=8)
            )
        if router is not None:
            for name, known in old.items():
                if known.weights is not None and facts.get(name) is not known:
                    router.rollback(name)
                    router.model.remove_chain(name)
        for name, known in facts.items():
            if known.weights is None:
                usage = None
                if router is not None:
                    router.model.add_chain(known.chain)
                    router.route(name)
                    usage = _link_usage(router, known.chain)
                known.weights = _chain_resource_weights(
                    model, known.chain, known.stage_links, usage
                )

    def touching(names: list[str], resource: ResourceKey) -> int:
        return sum(resource in facts[name].weights for name in names)

    partitions: list[Partition] = []
    shares: dict[int, dict[ResourceKey, float]] = {}
    group_first: list[int] = []
    for group, count in zip(groups, counts):
        first = len(partitions)
        group_first += [first] * count
        if count == 1:
            partitions.append(Partition(first, tuple(group), exact=True))
            continue
        # A chain of unchanged structure keeps its seat, so a partition
        # nothing joined or left keeps its chain list (and with it its
        # LP structure, warm basis and column pool).  A group whose
        # seats are not exactly those of one group of ``previous``, or
        # one of whose seats would overflow, is dealt from nothing.
        sat = {
            name: previous.chain_partition[name]
            for name in group
            if name in old and old[name].structure == facts[name].structure
        }
        origin = {previous._group_first[index] for index in sat.values()}
        base = min(origin, default=None)
        held: dict[str, int] = {}
        if len(origin) == 1 and previous._group_first.count(base) == count:
            held = {name: index - base for name, index in sat.items()}
        seats = _deal(group, count, held)
        if max(map(len, seats)) > max_chains:
            seats = _deal(group, count, {})
        totals = _tally(group, facts)
        for seat in seats:
            index = len(partitions)
            partitions.append(Partition(index, tuple(seat), exact=False))
            # Zero-demand contention (e.g. all-idle chains): split evenly
            # among the subgroups that touch the resource.
            shares[index] = {
                resource: weight / totals[resource]
                if totals[resource] > 0
                else touching(seat, resource) / touching(group, resource)
                for resource, weight in _tally(seat, facts).items()
            }
    return PartitionPlan(
        partitions, shares, facts, digest, router, tuple(group_first)
    )


def _node_distance(model: NetworkModel, a: str, b: str) -> float:
    """Latency metric between two nodes; missing pairs are infinitely far."""
    try:
        return model.latency(a, b)
    except Exception:
        return float("inf")


def _shard_seeds(
    model: NetworkModel, nodes: list[str], n_shards: int
) -> list[str]:
    """Farthest-first seed nodes, deterministic under name tie-breaks."""

    def total_distance(node: str) -> float:
        total = 0.0
        for other in nodes:
            d = _node_distance(model, node, other)
            if d != float("inf"):
                total += d
        return total

    # Most peripheral node first (maximum total finite distance), then
    # repeatedly the node farthest from every chosen seed.  All ties go
    # to the lexicographically smallest name, so the seed sequence -- and
    # with it the whole shard map -- is byte-stable across runs.
    seeds = [min(nodes, key=lambda n: (-total_distance(n), n))]
    while len(seeds) < n_shards:
        remaining = [n for n in nodes if n not in seeds]
        seeds.append(
            min(
                remaining,
                key=lambda n: (
                    -min(_node_distance(model, n, s) for s in seeds),
                    n,
                ),
            )
        )
    return seeds


def shard_map(model: NetworkModel, n_shards: int) -> tuple[tuple[str, ...], ...]:
    """Deterministically partition the substrate's nodes into ``n_shards``
    latency-coherent regions.

    This is the federation counterpart of :func:`coupling_groups`: where
    coupling groups cluster *chains* by the capacity resources they
    share, the shard map clusters *nodes* under the same latency metric
    that drives both the DP pre-route and the resource coupling -- so
    chains whose endpoints and candidate sites fall inside one shard
    tend to form intra-shard coupling groups, and the cross-shard
    residue is what :class:`repro.federation.GlobalCoordinator` splits at
    borders.

    The algorithm is farthest-first seeding over pairwise latency
    followed by quota-bounded region growth along physical links (each
    region holds at most ``ceil(n_nodes / n_shards)`` nodes, and a node
    joins a region only through a link to a node already inside it, so
    regions are connected subgraphs whenever the substrate is).  Models
    without links fall back to nearest-seed metric assignment.  Every
    choice is tie-broken on node names and the returned regions are
    ordered by their smallest member, so the output is **byte-stable**
    across runs and replayable under ``repro.chaos`` -- no dict
    iteration order leaks in.

    Returns a tuple of ``n_shards`` disjoint, name-sorted node tuples
    covering every node.
    """
    nodes = sorted(model.nodes)
    if not 1 <= n_shards <= len(nodes):
        raise PartitionError(
            f"n_shards must be in [1, {len(nodes)}], got {n_shards}"
        )
    if n_shards == 1:
        return (tuple(nodes),)

    seeds = _shard_seeds(model, nodes, n_shards)
    quota = -(-len(nodes) // n_shards)
    assignment: dict[str, int] = {seed: i for i, seed in enumerate(seeds)}
    region_sizes = [1] * n_shards

    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    for link in model.links.values():
        adjacency[link.src].add(link.dst)
        adjacency[link.dst].add(link.src)

    if model.links:
        # Grow regions along links: repeatedly admit the unassigned node
        # closest (to its region's seed) among all frontier candidates.
        unassigned = set(nodes) - assignment.keys()
        while unassigned:
            best: tuple[float, str, int] | None = None
            for node in unassigned:
                for neighbour in adjacency[node]:
                    region = assignment.get(neighbour)
                    if region is None or region_sizes[region] >= quota:
                        continue
                    candidate = (
                        _node_distance(model, seeds[region], node),
                        node,
                        region,
                    )
                    if best is None or candidate < best:
                        best = candidate
            if best is None:
                break  # stranded nodes (disconnected / full neighbours)
            _, node, region = best
            assignment[node] = region
            region_sizes[region] += 1
            unassigned.discard(node)
    else:
        unassigned = set(nodes) - assignment.keys()

    # Metric fallback for whatever region growth could not reach: the
    # nearest seed that still has quota, ties on (distance, seed index).
    for node in sorted(unassigned):
        region = min(
            (r for r in range(n_shards) if region_sizes[r] < quota),
            key=lambda r: (_node_distance(model, seeds[r], node), r),
        )
        assignment[node] = region
        region_sizes[region] += 1

    members: list[list[str]] = [[] for _ in range(n_shards)]
    for node, region in assignment.items():
        members[region].append(node)
    regions = sorted(tuple(sorted(m)) for m in members)
    return tuple(regions)


__all__ = [
    "DEFAULT_GAP_TOLERANCE",
    "Partition",
    "PartitionError",
    "PartitionPlan",
    "chain_resources",
    "coupling_groups",
    "partition_chains",
    "shard_map",
]
