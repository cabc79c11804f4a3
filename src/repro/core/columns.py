"""Columnar (numpy) views of :class:`~repro.core.model.NetworkModel`.

The dict-of-dataclasses model is convenient for construction and for the
simulation layers, but the LP assembly (:mod:`repro.core.formulation`,
behind :mod:`repro.core.lp` and :mod:`repro.core.capacity`) touches every
(chain, stage, src, dst) tuple and was dominated by per-variable Python
loops.  This module flattens the
model into integer index maps and dense/ragged numpy arrays once, so
constraint matrices can be assembled from array slices (COO triplets)
instead.

Three layers, mirroring what changes how often:

- :class:`SubstrateColumns` — nodes, latencies, sites, VNF deployments,
  links and routing fractions.  Invariant under chain changes, so
  ``copy_with_chains`` shares it between model copies.
- :class:`ChainColumns` — the flattened (chain, stage) table with
  per-stage demands and endpoint lists.  Cheap to rebuild; refreshed
  whenever chains are added, removed, or rescaled.
- :func:`build_variable_columns` — the cartesian (src × dst) expansion
  defining the LP variable order.  This is the expensive part and is what
  the structure caches of ``lp.py``/``capacity.py`` key on.

Index-map invariants (relied on by the assembly code and documented in
DESIGN.md):

- node/site/vnf/link/chain indices follow the model's dict insertion
  order, matching the scalar code's iteration order exactly;
- endpoint ids are ``node_index`` for nodes and ``n_nodes + site_index``
  for sites (a site and its colocated node are distinct endpoints);
- variable order is chain-major, then stage, then source-major over the
  stage's (sources × destinations) — identical to the enumeration of
  the scalar reference (``tests/reference/scalar_rows.py``), so cached
  matrices stay valid for solution extraction.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.model import ModelError, NetworkModel


def _ranges(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])`` without the loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def ragged_gather(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row (start, length) slices into flat pool indices.

    Returns ``(pool_idx, row_of)`` where ``pool_idx[k]`` indexes the
    pool entry and ``row_of[k]`` the originating row.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    pool_idx = np.repeat(np.asarray(starts, dtype=np.int64), lengths) + _ranges(
        lengths
    )
    return pool_idx, rows


def distinct(size: int, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` -- ids in ``range(size)`` -- ascending, and
    the rank among them of every id in that range: ``np.unique`` over a
    small id space, from a presence mask instead of a sort."""
    mask = np.zeros(size, dtype=bool)
    for part in keys:
        mask[part] = True
    return np.flatnonzero(mask), np.cumsum(mask) - 1


class LinkTable(NamedTuple):
    """Routing-pool entries of a block of node pairs, flattened."""

    targets: np.ndarray  # flat (src, dst) matrix element per entry
    group: np.ndarray  # (link, fraction) class per entry (``pool_class``)
    links: np.ndarray  # link index per entry


class StageTransition(NamedTuple):
    """Demand-independent arrays of one (sources -> destinations) stage."""

    latency: np.ndarray  # (n_src, n_dst) one-way delays
    fwd: LinkTable  # links under src -> dst traffic
    rev: LinkTable  # links under dst -> src traffic, same element order


class ChainTable(NamedTuple):
    """What the substrate alone says about routing one chain *shape*
    (ingress, egress, VNF sequence), laid out so a path search reads the
    residual state of every VNF stage with one gather.

    A table is references, put together per search; what it refers to
    is cached where it varies.  The (VNF, site) elements of all VNF
    stages, one stage-major run, hang on the VNF sequence and hit for
    every chain through that sequence; a stage's latencies and link
    entries hang on its two fronts (:meth:`SubstrateColumns.transition`)
    and hit for every chain crossing that pair.  A shape itself is not a
    key: under churn four searches in five are of a shape never seen.
    """

    stages: tuple[StageTransition, ...]
    index: np.ndarray  # vnf * n_sites + site of every (VNF stage, site) element
    site: np.ndarray  # its site index
    load: np.ndarray  # its VNF's load per unit of traffic
    sizes: np.ndarray  # elements (deployment sites) per VNF stage
    front: list[int]  # first element of each VNF stage, then the total


class SubstrateColumns:
    """Numpy view of everything in the model except the chains."""

    def __init__(self, model: NetworkModel):
        self.nodes: list[str] = list(model.nodes)
        self.node_index: dict[str, int] = {
            name: i for i, name in enumerate(self.nodes)
        }
        n = len(self.nodes)

        # Dense one-way delay matrix with the same semantics as
        # ``model.latency``: explicit entry, symmetric fallback, zero
        # diagonal, +inf when genuinely unknown.
        lat = np.full((n, n), np.inf)
        np.fill_diagonal(lat, 0.0)
        for (n1, n2), d in model._latency.items():
            i, j = self.node_index[n1], self.node_index[n2]
            if np.isinf(lat[j, i]) and j != i:
                lat[j, i] = d  # symmetric fallback
            lat[i, j] = d
        for (n1, n2), d in model._latency.items():
            i, j = self.node_index[n1], self.node_index[n2]
            lat[i, j] = d  # explicit entries win over fallbacks
        self.latency = lat

        # Sites / endpoints.  Endpoint id = node id, or n_nodes + site id.
        self.site_names: list[str] = list(model.sites)
        self.site_index: dict[str, int] = {
            s: i for i, s in enumerate(self.site_names)
        }
        self.site_node = np.array(
            [self.node_index[model.sites[s].node] for s in self.site_names],
            dtype=np.int64,
        )
        self.n_nodes = n
        self.endpoint_names: list[str] = self.nodes + self.site_names
        self.endpoint_index: dict[str, int] = {}
        for i, name in enumerate(self.endpoint_names):
            # Later site entries shadow same-named nodes, matching
            # ``NetworkModel.endpoint_node``'s site-first resolution.
            self.endpoint_index[name] = i
        self.endpoint_node = np.concatenate(
            [np.arange(n, dtype=np.int64), self.site_node]
        ) if self.site_names else np.arange(n, dtype=np.int64)

        # VNF catalog and ragged deployment lists.
        self.vnf_names: list[str] = list(model.vnfs)
        self.vnf_index: dict[str, int] = {
            v: i for i, v in enumerate(self.vnf_names)
        }
        self.vnf_load = np.array(
            [model.vnfs[v].load_per_unit for v in self.vnf_names]
        )
        self.vnf_sites: list[np.ndarray] = []
        for v in self.vnf_names:
            sites = model.vnfs[v].sites
            self.vnf_sites.append(
                np.array([self.site_index[s] for s in sites], dtype=np.int64)
            )

        # Name ranks reproduce the scalar code's sorted-by-name row order.
        self.site_rank = _rank(self.site_names)
        self.vnf_rank = _rank(self.vnf_names)

        # Links.
        self.link_names: list[str] = list(model.links)
        self.link_index: dict[str, int] = {
            name: i for i, name in enumerate(self.link_names)
        }
        self.link_rank = _rank(self.link_names)
        #: The insertion orders the ids above follow: a program assembled
        #: over these columns holds such ids, so it serves another model
        #: of equal content only if that model's orders are these.
        self.order = (
            tuple(self.nodes),
            tuple(self.site_names),
            tuple((v, *model.vnfs[v].sites) for v in self.vnf_names),
            tuple(self.link_names),
        )
        self._read_capacities(model)

        # Routing fractions as a CSR over node pairs: pair_id[n1, n2]
        # selects a slice [pair_start[p] : pair_start[p] + pair_len[p])
        # of (pool_link, pool_frac).
        self.pair_id = np.full((n, n), -1, dtype=np.int64)
        starts: list[int] = []
        lens: list[int] = []
        pool_link: list[int] = []
        pool_frac: list[float] = []
        for p, ((n1, n2), fractions) in enumerate(model.routing.items()):
            self.pair_id[self.node_index[n1], self.node_index[n2]] = p
            starts.append(len(pool_link))
            lens.append(len(fractions))
            for link_name, frac in fractions.items():
                pool_link.append(self.link_index[link_name])
                pool_frac.append(frac)
        self.pair_start = np.array(starts, dtype=np.int64)
        self.pair_len = np.array(lens, dtype=np.int64)
        self.pool_link = np.array(pool_link, dtype=np.int64)
        self.pool_frac = np.array(pool_frac)
        #: Per pool entry, the node pair it belongs to and its link in
        #: *name* order: traffic per pair -> traffic per link (Equation 6)
        #: is one gather and one ``bincount``.
        self.pool_pair = np.repeat(
            np.arange(len(lens), dtype=np.int64), self.pair_len
        )
        self.pool_link_rank = self.link_rank[self.pool_link]
        #: Per pool entry its (link, fraction) class, and per class the
        #: two: under one demand a class's entries meet one utilization.
        fracs, frac_of = np.unique(self.pool_frac, return_inverse=True)
        n_links = max(1, len(self.link_names))
        keys, self.pool_class = np.unique(frac_of * n_links + self.pool_link, return_inverse=True)
        self.class_link, self.class_frac = keys % n_links, fracs[keys // n_links]
        self.mlu_limit = model.mlu_limit
        # Filled on demand, keyed by a pair of front ids (chain_fronts),
        # dropped with this object by invalidate_substrate().
        self._transitions: dict[tuple[int, int], StageTransition] = {}
        self._candidate_links: dict[tuple[int, int], tuple] = {}
        # ...and by VNF sequence: the ChainTable fields after ``stages``.
        self._site_runs: dict[tuple[str, ...], tuple] = {}
        #: The last ``route_chains_dp`` run over these columns, which a
        #: later run replays the unchanged prefix of.
        self.dp_trail = None

    def _read_capacities(self, model: NetworkModel) -> None:
        """The four capacity arrays: per site, per (VNF, site) -- NaN
        where the VNF is not deployed --, and per link its bandwidth and
        background traffic.  Everything else here is topology.  Records
        which catalog entries they were read from (``catalogs``)."""
        self.catalogs = catalog_ids(model)
        self.site_capacity = np.array(
            [model.sites[s].capacity for s in self.site_names]
        )
        self.vnf_cap = np.full((len(self.vnf_names), len(self.site_names)), np.nan)
        for vi, v in enumerate(self.vnf_names):
            for s, cap in model.vnfs[v].site_capacity.items():
                self.vnf_cap[vi, self.site_index[s]] = cap
        self.link_bandwidth = np.array(
            [model.links[name].bandwidth for name in self.link_names]
        )
        self.link_background = np.array(
            [model.links[name].background for name in self.link_names]
        )

    def rescaled(self, model: NetworkModel) -> "SubstrateColumns":
        """These columns under the capacities of ``model``, which has this
        topology (:meth:`NetworkModel.copy_with_capacities`): index maps,
        latency and routing arrays are shared, the four capacity arrays
        re-read with the catalog entries they come from, and the
        per-front and per-sequence caches and the SB-DP trail start
        empty."""
        clone = copy.copy(self)
        clone._read_capacities(model)
        clone._transitions, clone._candidate_links, clone._site_runs = {}, {}, {}
        clone.dp_trail = None
        return clone

    def headroom(self) -> np.ndarray:
        """Per-link capacity available under the MLU budget."""
        return np.maximum(
            0.0, self.mlu_limit * self.link_bandwidth - self.link_background
        )

    def chain_fronts(self, chain, model: NetworkModel) -> list[int]:
        """Ids of a chain's stage fronts: the ingress, each VNF in chain
        order, the egress.  Stage ``z`` runs from front ``z - 1`` to front
        ``z``.  An endpoint's front id is its network node's index, a
        VNF's ``n_nodes +`` its index (its deployment sites' nodes)."""
        node = self.endpoint_node
        return [
            int(node[self.endpoint_id(chain.ingress, model)]),
            *(self.n_nodes + self.vnf_index[v] for v in chain.vnfs),
            int(node[self.endpoint_id(chain.egress, model)]),
        ]

    def _front_nodes(self, front: int) -> np.ndarray:
        """Network-node indices of the front with id ``front``."""
        if front < self.n_nodes:
            return np.array([front], dtype=np.int64)
        return self.site_node[self.vnf_sites[front - self.n_nodes]]

    def chain_table(self, chain, model: NetworkModel) -> ChainTable:
        """The whole-chain gather table of ``chain``'s shape: references
        to the per-front-pair transitions and the per-sequence run."""
        fronts = self.chain_fronts(chain, model)
        run = self._site_runs.get(chain.vnfs)
        if run is None:
            ids = [self.vnf_index[v] for v in chain.vnfs]
            sites = [self.vnf_sites[i] for i in ids]
            sizes = np.array([len(s) for s in sites], dtype=np.int64)
            vnf = np.repeat(np.array(ids, dtype=np.int64), sizes)
            site = np.concatenate(sites) if sites else np.zeros(0, np.int64)
            run = self._site_runs[chain.vnfs] = (
                vnf * len(self.site_names) + site,
                site,
                self.vnf_load[vnf],
                sizes,
                [0, *np.cumsum(sizes).tolist()],
            )
        return ChainTable(tuple(map(self.transition, fronts, fronts[1:])), *run)

    def transition(self, src: int, dst: int) -> "StageTransition":
        """Everything the substrate alone says about stage traffic from
        front ``src`` to front ``dst``, computed once per distinct pair
        of fronts (chains sharing a consecutive VNF pair share it)."""
        found = self._transitions.get((src, dst))
        if found is None:
            src_nodes, dst_nodes = self._front_nodes(src), self._front_nodes(dst)
            found = self._transitions[src, dst] = StageTransition(
                self.latency[np.ix_(src_nodes, dst_nodes)],
                self._link_table(src_nodes, dst_nodes, transpose=False),
                self._link_table(dst_nodes, src_nodes, transpose=True),
            )
        return found

    def candidate_links(
        self, src: int, dst: int
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Names of the distinct links traffic from front ``src`` to front
        ``dst`` can cross, and of those dst -> src traffic can (each in
        link-index order)."""
        found = self._candidate_links.get((src, dst))
        if found is None:
            found = self._candidate_links[src, dst] = tuple(
                tuple(self.link_names[i] for i in distinct(len(self.link_names), table.links)[0])
                for table in self.transition(src, dst)[1:]
            )
        return found

    def _link_table(
        self, a_nodes: np.ndarray, b_nodes: np.ndarray, transpose: bool
    ) -> "LinkTable":
        """Flat link-gather table for every (a, b) node pair.

        ``targets`` maps each pool entry to its cost-matrix element --
        (a, b) element order, or (b, a) with ``transpose`` (the
        reverse-traffic direction of a stage).  Entries stay in pool
        order per pair so the DP's penalty accumulation (``np.add.at``
        is sequential) keeps the scalar code's per-link order.
        """
        if not self.pool_link.size:  # the model has no routing fractions
            return LinkTable(*[self.pool_link] * 3)
        pids = self.pair_id[np.ix_(a_nodes, b_nodes)].ravel()
        valid = np.flatnonzero(pids >= 0)
        p = pids[valid]
        pool_idx, row_of = ragged_gather(self.pair_start[p], self.pair_len[p])
        links = self.pool_link[pool_idx]
        targets = valid[row_of]
        if transpose:
            a_i, b_i = np.divmod(targets, b_nodes.size)
            targets = b_i * a_nodes.size + a_i
        return LinkTable(targets, self.pool_class[pool_idx], links)

    def endpoint_id(self, name: str, model: NetworkModel) -> int:
        """Endpoint id of a site name or node name (site wins)."""
        if name in self.site_index:
            return self.n_nodes + self.site_index[name]
        node = self.node_index.get(name)
        if node is None:
            raise ModelError(f"unknown endpoint {name!r}")
        return node


def catalog_ids(model: NetworkModel) -> tuple:
    """Identities of the model's ``vnfs`` / ``sites`` / ``links`` entries:
    columns that recorded others were read before an in-place swap."""
    return tuple(tuple(map(id, c.values())) for c in (model.vnfs, model.sites, model.links))


def _rank(names: list[str]) -> np.ndarray:
    """``rank[i]`` = position of ``names[i]`` in sorted name order."""
    order = sorted(range(len(names)), key=lambda i: names[i])
    rank = np.zeros(len(names), dtype=np.int64)
    for pos, i in enumerate(order):
        rank[i] = pos
    return rank


class ChainColumns:
    """Flattened (chain, stage) table for the model's current chains.

    Rebuilding this is cheap (linear in the number of stages), and a
    model whose chains differ from another's in demand magnitudes only
    takes that table :meth:`refilled`; the expensive cartesian variable
    expansion lives in :func:`build_variable_columns` and is cached on
    matrix structure.
    """

    def __init__(self, model: NetworkModel, sub: SubstrateColumns):
        self.chain_names: list[str] = list(model.chains)
        self.chain_index = {c: i for i, c in enumerate(self.chain_names)}
        chains = model.chains.values()
        vnfs = [[sub.vnf_index[v] for v in chain.vnfs] for chain in chains]
        stages = [len(ids) + 1 for ids in vnfs]
        # First stage row of every chain, then the number of rows.
        self.chain_stage_start = [0, *itertools.accumulate(stages)]
        self.n_stage_rows = self.chain_stage_start[-1]
        self.stage_chain = np.repeat(np.arange(len(stages), dtype=np.int64), stages)
        self.stage_z = _ranges(stages) + 1
        # A stage runs from one front of its chain to the next: the
        # ingress endpoint, the sites of each VNF (-1: an endpoint), the
        # egress endpoint.
        fronts = [[-1, *ids, -1] for ids in vnfs]
        self.stage_src_vnf = np.array([v for f in fronts for v in f[:-1]], dtype=np.int64)
        self.stage_dst_vnf = np.array([v for f in fronts for v in f[1:]], dtype=np.int64)
        pools = [
            [
                np.array([sub.endpoint_id(chain.ingress, model)], dtype=np.int64),
                *(sub.n_nodes + sub.vnf_sites[i] for i in ids),
                np.array([sub.endpoint_id(chain.egress, model)], dtype=np.int64),
            ]
            for chain, ids in zip(chains, vnfs)
        ]
        self.src_pool, self.src_start, self.src_len = _pooled([p for f in pools for p in f[:-1]])
        self.dst_pool, self.dst_start, self.dst_len = _pooled([p for f in pools for p in f[1:]])
        self._read_demands(model)

    def _read_demands(self, model: NetworkModel) -> None:
        """The per-stage demands of ``model``'s chains, in table order."""
        chains, n = model.chains.values(), self.n_stage_rows
        self.stage_fwd = np.fromiter(
            itertools.chain.from_iterable(c.forward_traffic for c in chains), float, n
        )
        self.stage_rev = np.fromiter(
            itertools.chain.from_iterable(c.reverse_traffic for c in chains), float, n
        )
        self.stage_total = self.stage_fwd + self.stage_rev

    def refilled(self, model: NetworkModel) -> "ChainColumns":
        """This table for ``model``, whose chains are the ones it was
        built from but for demand magnitudes -- same names, endpoints,
        VNFs and demand positivity, in order, over a substrate of the
        same order: what a structure-cache key proves.  Every structural
        array is shared; the demands are read again."""
        clone = copy.copy(self)
        clone._read_demands(model)
        return clone


def _pooled(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pool of the ragged ``parts``, each part's start and length."""
    lengths = np.array([len(p) for p in parts], dtype=np.int64)
    pool = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return pool, np.cumsum(lengths) - lengths, lengths


@dataclass
class VariableColumns:
    """The cartesian (src × dst) variable expansion, in scalar order."""

    n_vars: int
    var_stage: np.ndarray  # index into the ChainColumns stage table
    var_src_ep: np.ndarray  # endpoint ids
    var_dst_ep: np.ndarray
    var_src_pos: np.ndarray  # position of src in its stage's source list
    var_dst_pos: np.ndarray  # position of dst in its stage's dest list
    var_latency: np.ndarray  # one-way delay src -> dst
    stage_var_start: np.ndarray  # first variable of each stage row


def build_variable_columns(
    sub: SubstrateColumns, ch: ChainColumns
) -> VariableColumns:
    """Expand the stage table into per-variable arrays.

    The order is exactly the historical scalar enumeration: for each
    stage row, sources vary slowest and destinations fastest.
    """
    counts = ch.src_len * ch.dst_len
    stage_var_start = np.concatenate(
        [[0], np.cumsum(counts)]
    ).astype(np.int64)
    n_vars = int(stage_var_start[-1])
    var_stage = np.repeat(
        np.arange(ch.n_stage_rows, dtype=np.int64), counts
    )

    # src index repeats each destination-count times within its stage row;
    # dst index tiles across sources.
    src_sel, _rows = ragged_gather(ch.src_start, ch.src_len)
    # Expand each source entry by its stage's destination count.
    per_src_repeat = np.repeat(ch.dst_len, ch.src_len)
    var_src_ep = np.repeat(ch.src_pool[src_sel], per_src_repeat)
    var_src_pos = np.repeat(
        _ranges(ch.src_len), per_src_repeat
    )

    # Destinations: for each stage row, tile the dst list src_len times.
    tiled_dst_start = np.repeat(ch.dst_start, ch.src_len)
    tiled_dst_len = np.repeat(ch.dst_len, ch.src_len)
    dst_sel, _ = ragged_gather(tiled_dst_start, tiled_dst_len)
    var_dst_ep = ch.dst_pool[dst_sel]
    var_dst_pos = _ranges(tiled_dst_len)

    lat = sub.latency[
        sub.endpoint_node[var_src_ep], sub.endpoint_node[var_dst_ep]
    ]
    if np.isinf(lat).any():
        bad = int(np.argmax(np.isinf(lat)))
        src = sub.endpoint_names[int(var_src_ep[bad])]
        dst = sub.endpoint_names[int(var_dst_ep[bad])]
        raise ModelError(f"no latency entry for {src!r} -> {dst!r}")
    return VariableColumns(
        n_vars=n_vars,
        var_stage=var_stage,
        var_src_ep=var_src_ep,
        var_dst_ep=var_dst_ep,
        var_src_pos=var_src_pos,
        var_dst_pos=var_dst_pos,
        var_latency=lat,
        stage_var_start=stage_var_start,
    )


__all__ = [
    "ChainColumns",
    "ChainTable",
    "LinkTable",
    "SubstrateColumns",
    "VariableColumns",
    "build_variable_columns",
    "catalog_ids",
    "distinct",
    "StageTransition",
    "ragged_gather",
]
