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
   resource set and its weights -- as integer resource ids over the
   substrate's columns -- plus one SB-DP router holding every chain's
   pre-route, and
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

import functools
from dataclasses import dataclass
from operator import is_
from typing import Iterable, Mapping

import numpy as np

from repro.core.columns import ragged_gather
from repro.core.dp import DpConfig, IncrementalDpRouter
from repro.core.errors import ReproError
from repro.core.model import Chain, CloudSite, Link, ModelError, NetworkModel, VNF

#: Relative objective gap the split-partition farm is expected to stay
#: within on the benchmark workloads (see module docstring).
DEFAULT_GAP_TOLERANCE = 0.15

ResourceKey = tuple  # ("site", s) | ("vnf", f, s) | ("link", name)


class PartitionError(ReproError):
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
    """What a plan knows about one chain, on resource ids (:class:`_Ids`).
    All of it follows from the substrate and the chain alone (the weights
    also from the pre-route the chain met), so it stays true until either
    changes."""

    chain: Chain
    structure: tuple
    #: Per stage, the link ids its traffic could cross: the candidate
    #: links of each direction with demand (:func:`_derive`).
    stage_links: list[tuple[np.ndarray, ...]]
    #: The resource ids its LP variables can touch, ascending.
    resources: np.ndarray
    #: Proportional-split weights -- the resource ids weighed, ascending,
    #: and their weights -- ``None`` while no coupling group is split
    #: (then nothing is pre-routed either).
    weights: tuple[np.ndarray, np.ndarray] | None = None


class _Ids:
    """The one resource id space over a model's columns: the (VNF, site)
    element ``vnf * n_sites + site``, then the sites, then the links,
    each in the columns' insertion order.  :data:`ResourceKey` tuples
    are made only at the boundary (:attr:`keys`).  A batch of chains is
    laid out row by row, ``row * size + id``."""

    def __init__(self, sub):
        self.sub = sub
        self.site = len(sub.vnf_names) * len(sub.site_names)
        self.link = self.site + len(sub.site_names)
        self.size = self.link + len(sub.link_names)

    def rows(self, keys: np.ndarray, n: int, *values: np.ndarray) -> list[list[np.ndarray]]:
        """Ascending ``row * size + id`` keys of rows ``range(n)``, cut
        per row: the ids of each row, and each of ``values`` -- one per
        key -- cut alike."""
        row = keys // self.size
        ends = np.cumsum(np.bincount(row, minlength=n)).tolist()
        return [
            [part[i:j] for i, j in zip([0, *ends[:-1]], ends)]
            for part in (keys - row * self.size, *values)
        ]

    @functools.cached_property
    def keys(self) -> list[ResourceKey]:
        """Resource id -> its :data:`ResourceKey`."""
        sub = self.sub
        return [
            *(("vnf", v, s) for v in sub.vnf_names for s in sub.site_names),
            *(("site", s) for s in sub.site_names),
            *(("link", name) for name in sub.link_names),
        ]


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
        order: tuple | None = None,
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
        #: The insertion orders of the columns the facts' resource ids
        #: index (``SubstrateColumns.order``).
        self._order = order
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
        share = shares.get(("link", link.name), 1.0)
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


def _derive(model: NetworkModel, ids: _Ids, fresh: list[_ChainFacts]) -> None:
    """Fill in the stage links and resource ids of the ``fresh`` chains'
    facts, every stage transition they lack built in one pass.

    A stage's links are the candidate links of each direction with demand
    (none for a stage without demand, or a model without routing); a
    chain's resources those links, and every (VNF, site) element and
    site of its VNF stages."""
    tables = ids.sub.chain_tables([known.chain for known in fresh], model)
    parts, offsets = [], []
    for row, (known, table) in enumerate(zip(fresh, tables)):
        chain, base = known.chain, row * ids.size
        known.stage_links = [
            (stage.fwd.candidates,) * (fwd > 0) + (stage.rev.candidates,) * (rev > 0)
            if model.routing else ()
            for stage, fwd, rev in zip(table.stages, chain.forward_traffic, chain.reverse_traffic)
        ]
        parts += [table.index, table.site]
        offsets += [base, base + ids.site]
        for stage in known.stage_links:
            parts += stage
            offsets += [base + ids.link] * len(stage)
    touched = np.zeros(len(fresh) * ids.size, dtype=bool)
    touched[_flat(parts, offsets)] = True
    for known, rid in zip(fresh, ids.rows(np.flatnonzero(touched), len(fresh))[0]):
        known.resources = rid


def _flat(parts: list[np.ndarray], offsets: list[int]) -> np.ndarray:
    """``concatenate([part + offset for part, offset in zip(parts, offsets)])``."""
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts) + np.repeat(offsets, [part.size for part in parts])


#: Fraction of a chain's stage traffic spread uniformly over every link
#: it *could* use, on top of the full weight placed on its predicted
#: usage.  Keeps overflow links available to the subgroup without
#: diluting the bottleneck-link shares that matter.
_LINK_OVERFLOW_WEIGHT = 0.1


def _pool_traffic(sub, n1: list[int], n2: list[int], amount: list[float]):
    """Per routing-pool entry of the node pairs ``(n1[k], n2[k])`` in
    turn, each in pool order: its ``k``, its link id and its share of
    ``amount[k]`` (``amount[k] * fraction``, as a per-link sum adds it)."""
    pids = sub.pair_id[n1, n2]
    keep = np.flatnonzero(pids >= 0)
    pool, row = ragged_gather(sub.pair_start[pids[keep]], sub.pair_len[pids[keep]])
    entry = keep[row]
    return entry, sub.pool_link[pool], np.asarray(amount, dtype=float)[entry] * sub.pool_frac[pool]


def _latency_path(model: NetworkModel, chain: Chain) -> list[str] | None:
    """The chain's minimum-latency site sequence, capacities ignored
    (``None`` when no sequence has a finite delay).

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
    if chain.egress not in prev_cost:
        return None
    path = [chain.egress]
    current = chain.egress
    for parent in reversed(parents):
        current = parent[current]
        path.append(current)
    path.reverse()
    return path


def _link_usage(
    model: NetworkModel, ids: _Ids, batch: list[_ChainFacts],
    router: IncrementalDpRouter | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Link traffic of the ``batch`` chains' SB-DP pre-routes (none
    without a ``router``): per routing-pool entry of every routed stage
    flow -- chain by chain, stage by stage, flow by flow, forward before
    reverse -- its ``row * size + id`` key and its volume.

    The best proportional link shares are the shares of the *optimal*
    solution's link usage (a partition can then always reproduce its
    slice of the monolithic routing).  The SB-DP heuristic approximates
    that equilibrium at a tiny fraction of the LP's cost, so its
    per-chain link traffic is the default weighting for split link
    budgets.  Chains SB-DP leaves (partially) unrouted keep whatever
    usage their routed fraction generates.
    """
    sub = ids.sub
    rows, n1, n2, volume = [], [], [], []
    for row, known in enumerate(batch if router is not None else ()):
        chain = known.chain
        for z in range(chain.num_stages):
            for (src, dst), frac in router.solution.stage_flows(chain.name, z + 1).items():
                a = sub.node_index[model.endpoint_node(src)]
                b = sub.node_index[model.endpoint_node(dst)]
                for x, y, v in (
                    (a, b, chain.forward_traffic[z] * frac),
                    (b, a, chain.reverse_traffic[z] * frac),
                ):
                    if v > 0:
                        rows.append(row)
                        n1.append(x)
                        n2.append(y)
                        volume.append(v)
    entry, links, volumes = _pool_traffic(sub, n1, n2, volume)
    return np.array(rows, dtype=np.int64)[entry] * ids.size + ids.link + links, volumes


def _weigh(
    model: NetworkModel, ids: _Ids, batch: list[_ChainFacts],
    router: IncrementalDpRouter | None,
) -> None:
    """Set the proportional-split weights -- the demand each chain can
    place on a resource -- of the ``batch`` chains' facts, all in one
    pass over ``row * size + id`` keys.

    Compute weights mirror Equation 4's load accounting, spread over
    every deployment site (the LP is free to use any of them, and a
    uniform per-site ratio keeps each subgroup's total capacity for a
    VNF proportional to its demand).  Link weights come from the SB-DP
    pre-route held by ``router`` (:func:`_link_usage`), falling back to
    the chain's latency-best path when the pre-route carried nothing
    for it; every other link the chain could use (its stage links) gets
    a small uniform share (:data:`_LINK_OVERFLOW_WEIGHT`) so overflow
    routing stays possible; a chain without a finite path gets only
    those.

    Each key's weight is the running sum a dict keyed by resource held:
    the same additions, from 0.0, in the same order (``np.add.at`` is
    sequential, and a key takes additions of one kind only), and the
    overflow rule runs stage by stage on the running value.  A chain
    weighed on its latency path, whose path and overflow additions
    interleave, is tallied on its own (:func:`_path_weights`).
    """
    if not batch:
        return
    sub, size = ids.sub, ids.size
    usage, volumes = _link_usage(model, ids, batch, router)
    used = set((usage // size).tolist())
    added, values = [usage], [volumes]
    # Compute: the (VNF, site) elements and the sites of each VNF stage.
    parts, offsets, loads, sizes = [], [], [], []
    # Overflow, per stage: the stage links of every chain weighed on no
    # path, and their shares.
    over: list[tuple[list, list, list]] = []
    for row, known in enumerate(batch):
        chain, base = known.chain, row * size
        index, site, _load, stage_sizes, _front = sub.site_run(chain.vnfs)
        totals = [w + v for w, v in zip(chain.forward_traffic, chain.reverse_traffic)]
        stage_load = [
            model.vnfs[name].load_per_unit * (a + b)
            for name, a, b in zip(chain.vnfs, totals, totals[1:])
        ]
        parts += [index, site]
        offsets += [base, base + ids.site]
        loads += stage_load * 2
        sizes += stage_sizes.tolist() * 2
        path = None
        if model.routing and row not in used:
            path = _latency_path(model, chain)
        if path is not None:
            tally = _path_weights(
                sub, known, [sub.node_index[model.endpoint_node(n)] for n in path]
            )
            added.append(np.array(list(tally), dtype=np.int64) + base + ids.link)
            values.append(np.array(list(tally.values())))
            continue
        over += [([], [], []) for _ in range(len(known.stage_links) - len(over))]
        for (links, at, share), stage, total in zip(over, known.stage_links, totals):
            links += stage
            at += [base + ids.link] * len(stage)
            share += [_LINK_OVERFLOW_WEIGHT * total] * len(stage)
    added = np.concatenate([*added, _flat(parts, offsets)])
    weight = np.zeros(len(batch) * size)
    weighed = np.zeros(weight.size, dtype=bool)
    np.add.at(weight, added, np.concatenate([*values, np.repeat(loads, sizes)]))
    weighed[added] = True
    for links, at, share in over:  # stage by stage, on the running value
        key = _flat(links, at)
        idle = weight[key] <= 0.0
        key = key[idle]
        weight[key] += np.repeat(share, [part.size for part in links])[idle]
        weighed[key] = True
    kept = np.flatnonzero(weighed)
    for known, rid, w in zip(batch, *ids.rows(kept, len(batch), weight[kept])):
        known.weights = (rid, w)


def _path_weights(sub, known: _ChainFacts, path: list[int]) -> dict[int, float]:
    """Link id -> weight of a chain weighed on its latency path (node
    ids): stage by stage, the path's link traffic and then the overflow
    rule on the running value -- a dict tally, keyed by link id."""
    chain, weight = known.chain, {}
    fwd, rev = chain.forward_traffic, chain.reverse_traffic
    for z, stage in enumerate(known.stage_links):  # () for a stage without demand
        for n1, n2, volume in ((path[z], path[z + 1], fwd[z]), (path[z + 1], path[z], rev[z])):
            if volume > 0:
                _, links, traffic = _pool_traffic(sub, [n1], [n2], [volume])
                for link, v in zip(links.tolist(), traffic.tolist()):
                    weight[link] = weight.get(link, 0.0) + v
        for link in (link for part in stage for link in part.tolist()):
            if weight.get(link, 0.0) <= 0.0:
                weight[link] = weight.get(link, 0.0) + _LINK_OVERFLOW_WEIGHT * (fwd[z] + rev[z])
    return weight


def _coupled(names: list[str], resources: list[np.ndarray], size: int) -> list[list[str]]:
    """Names grouped by shared resource ids, deterministically ordered:
    the connected components of the name x resource incidence graph.

    Every name starts as its own label; a pass gives each resource the
    least label of its names, each name the least label of its resources,
    and then each name its label's label.  Labels stay names of the same
    component and only fall, so the passes end, and where they end every
    name sharing a resource with another has its label."""
    rows = np.repeat(np.arange(len(names)), [part.size for part in resources])
    cols = _flat(resources, [0] * len(resources))
    label = np.arange(len(names))
    while True:
        low = np.full(size, len(names))
        np.minimum.at(low, cols, label[rows])
        fell = label.copy()
        np.minimum.at(fell, rows, low[cols])
        fell = fell[fell]
        if np.array_equal(fell, label):
            break
        label = fell
    groups: dict[int, list[str]] = {}
    for name, group in sorted(zip(names, label.tolist())):
        groups.setdefault(group, []).append(name)
    return list(groups.values())


def coupling_groups(model: NetworkModel) -> list[list[str]]:
    """Chains grouped by shared resources, deterministically ordered."""
    ids = _Ids(model.substrate_columns())
    facts = [_ChainFacts(chain, (), [], None) for chain in model.chains.values()]
    _derive(model, ids, facts)
    return _coupled(list(model.chains), [known.resources for known in facts], ids.size)


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
    names: list[str], facts: Mapping[str, _ChainFacts], size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per resource id, the summed weight of ``names`` and how many of
    them weigh it.  ``bincount`` adds in input order from 0.0, so with the
    names in order the sums are those of a dict tally over them."""
    rid = np.concatenate([facts[name].weights[0] for name in names])
    weight = np.concatenate([facts[name].weights[1] for name in names])
    return np.bincount(rid, weight, size), np.bincount(rid, minlength=size)


def check_partition_size(max_chains: int | None) -> None:
    """Refuse a partition cap that is not positive (``None``: no cap)."""
    if max_chains is not None and max_chains < 1:
        raise PartitionError(f"partition size must be positive, got {max_chains}")


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
    moves here).  If it was built on the same substrate, in the same
    insertion order (the resource ids follow it), a chain it
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
    check_partition_size(max_chains)

    digest, ids = model.substrate_digest(), _Ids(model.substrate_columns())
    if previous is not None and (
        previous.substrate_digest != digest or previous._order != ids.sub.order
    ):
        previous = None
    old = previous._facts if previous is not None else {}
    facts: dict[str, _ChainFacts] = {}
    fresh: list[_ChainFacts] = []
    for name, chain in model.chains.items():
        known = old.get(name)
        if known is None or known.chain != chain:
            structure = _chain_structure(chain)
            if known is not None and known.structure == structure:
                known = _ChainFacts(
                    chain, structure, known.stage_links, known.resources
                )
            else:
                known = _ChainFacts(chain, structure, [], None)
                fresh.append(known)
        facts[name] = known
    _derive(model, ids, fresh)

    groups = _coupled(list(facts), [known.resources for known in facts.values()], ids.size)
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
        # routed before it left behind, and its link usage weighs it
        # (all of them in one pass once all are routed).
        if router is None and model.routing:
            router = IncrementalDpRouter(
                model.copy_with_chains(()), DpConfig(max_paths_per_chain=8)
            )
        if router is not None:
            for name, known in old.items():
                if known.weights is not None and facts.get(name) is not known:
                    router.rollback(name)
                    router.model.remove_chain(name)
        batch = [known for known in facts.values() if known.weights is None]
        for known in batch if router is not None else ():
            router.model.add_chain(known.chain)
            router.route(known.chain.name)
        _weigh(model, ids, batch, router)

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
        totals, touching = _tally(group, facts, ids.size)
        for seat in seats:
            index = len(partitions)
            partitions.append(Partition(index, tuple(seat), exact=False))
            weight, touched = _tally(seat, facts, ids.size)
            rid = np.flatnonzero(touched)
            # Zero-demand contention (e.g. all-idle chains): split evenly
            # among the subgroups that touch the resource.
            share = touched[rid] / touching[rid]
            busy = totals[rid] > 0
            share[busy] = weight[rid][busy] / totals[rid][busy]
            shares[index] = dict(zip(map(ids.keys.__getitem__, rid.tolist()), share.tolist()))
    return PartitionPlan(
        partitions, shares, facts, digest, router, tuple(group_first), ids.sub.order
    )


def _node_distance(model: NetworkModel, a: str, b: str) -> float:
    """Latency metric between two nodes; missing pairs are infinitely far."""
    try:
        return model.latency(a, b)
    except ModelError:
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
