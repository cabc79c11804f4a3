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
    candidates: np.ndarray  # the distinct links of the entries, ascending


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
    stages, one stage-major run, hang on the VNF sequence
    (:meth:`SubstrateColumns.site_run`) and hit for every chain through
    that sequence; a stage's latencies and link entries hang on its two
    fronts (:meth:`SubstrateColumns.transitions`) and hit for every chain
    crossing that pair.  A shape itself is not a
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
        # diagonal, +inf when genuinely unknown -- or failed: ``known``
        # tells a failed pair's +inf entry from a missing one.
        lat = np.full((n, n), np.inf)
        np.fill_diagonal(lat, 0.0)
        known = np.eye(n, dtype=bool)
        for (n1, n2), d in model._latency.items():
            i, j = self.node_index[n1], self.node_index[n2]
            if np.isinf(lat[j, i]) and j != i:
                lat[j, i] = d  # symmetric fallback
            lat[i, j] = d
            known[i, j] = known[j, i] = True
        for (n1, n2), d in model._latency.items():
            i, j = self.node_index[n1], self.node_index[n2]
            lat[i, j] = d  # explicit entries win over fallbacks
        self.latency = lat
        self.known = known

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

        #: Every stage front's network nodes (:meth:`chain_fronts`) in one
        #: ragged pool: front ``f`` holds ``front_len[f]`` of them from
        #: ``front_start[f]``, its ``front_nodes``.
        self.front_pool, self.front_start, self.front_len = _pooled([
            *np.arange(n, dtype=np.int64).reshape(-1, 1),
            *(self.site_node[s] for s in self.vnf_sites),
        ])
        self.front_nodes = np.split(self.front_pool, self.front_start[1:])

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
        clone._transitions, clone._site_runs = {}, {}
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

    def chain_table(self, chain, model: NetworkModel) -> ChainTable:
        """The whole-chain gather table of ``chain``'s shape: references
        to the per-front-pair transitions -- those not held yet built in
        one pass (:meth:`transitions`) -- and the per-sequence run
        (:meth:`site_run`)."""
        fronts = self.chain_fronts(chain, model)
        stages = self.transitions(list(zip(fronts, fronts[1:])))
        return ChainTable(tuple(stages), *self.site_run(chain.vnfs))

    def chain_tables(self, chains, model: NetworkModel) -> list[ChainTable]:
        """:meth:`chain_table` of each chain, every transition they lack
        built in one pass first."""
        fronts = [self.chain_fronts(chain, model) for chain in chains]
        self.transitions([pair for f in fronts for pair in zip(f, f[1:])])
        return [self.chain_table(chain, model) for chain in chains]

    def site_run(self, vnfs: tuple[str, ...]) -> tuple:
        """The :class:`ChainTable` fields after ``stages`` of the VNF
        sequence ``vnfs``: its (VNF, site) elements, stage-major."""
        run = self._site_runs.get(vnfs)
        if run is None:
            ids = [self.vnf_index[v] for v in vnfs]
            sites = [self.vnf_sites[i] for i in ids]
            sizes = np.array([len(s) for s in sites], dtype=np.int64)
            vnf = np.repeat(np.array(ids, dtype=np.int64), sizes)
            site = np.concatenate(sites) if sites else np.zeros(0, np.int64)
            run = self._site_runs[vnfs] = (
                vnf * len(self.site_names) + site,
                site,
                self.vnf_load[vnf],
                sizes,
                [0, *np.cumsum(sizes).tolist()],
            )
        return run

    def transitions(self, pairs: list[tuple[int, int]]) -> list[StageTransition]:
        """Everything the substrate alone says about stage traffic from
        front ``src`` to front ``dst``, for every ``(src, dst)`` of
        ``pairs``.  Held per distinct pair of fronts (chains sharing a
        consecutive VNF pair share it); the pairs not held yet are built
        together by :meth:`_build_transitions`."""
        held = self._transitions
        new = [pair for pair in pairs if pair not in held]
        if new:
            self._build_transitions(list(dict.fromkeys(new)))
        return [held[pair] for pair in pairs]

    def _build_transitions(self, pairs: list[tuple[int, int]]) -> None:
        """Build the transitions of ``pairs`` (distinct, none held): each
        pair's delay block, and the link tables of all pairs in one
        ragged gather over their (src node, dst node) elements,
        pair-major, src-major within a pair.

        The forward link table of a pair holds, element by element, the
        routing-pool entries of the element's node pair in pool order, so
        the DP's penalty accumulation (``np.add.at`` is sequential) keeps
        the scalar code's per-link order; the reverse table does the
        same over the transposed (dst node, src node) grid, its
        ``targets`` pointing back into the (src, dst) matrix.  Each
        table's distinct links come from one presence mask over (pair,
        link).  The built arrays are read-only (the link tables' views
        into one buffer per kind): every chain crossing the pair reads
        them."""
        nodes = self.front_nodes
        blocks = [self.latency[nodes[a][:, None], nodes[b]] for a, b in pairs]
        for block in blocks:
            block.flags.writeable = False
        if not self.pool_link.size:  # the model has no routing fractions
            empty = LinkTable(*[self.pool_link] * 3)
            self._transitions.update(
                (pair, StageTransition(block, empty, empty)) for pair, block in zip(pairs, blocks)
            )
            return
        a, b = np.array(pairs, dtype=np.int64).T
        ns, nd = self.front_len[a], self.front_len[b]
        pair = np.repeat(np.arange(len(pairs), dtype=np.int64), ns * nd)
        elem = _ranges(ns * nd)  # (src, dst) matrix element within its pair
        src_pos, dst_pos = np.divmod(elem, nd[pair])
        rev_dst, rev_src = np.divmod(elem, ns[pair])  # the reverse grid, dst-major
        src_start, dst_start = self.front_start[a][pair], self.front_start[b][pair]
        pool = self.front_pool
        tables = [
            self._link_entries(
                pool[src_start + src_pos], pool[dst_start + dst_pos], elem, pair, len(pairs)
            ),
            self._link_entries(
                pool[dst_start + rev_dst], pool[src_start + rev_src],
                rev_src * nd[pair] + rev_dst, pair, len(pairs),
            ),
        ]
        fwd, rev = (map(LinkTable, *table) for table in tables)
        self._transitions.update(zip(pairs, map(StageTransition, blocks, fwd, rev)))

    def _link_entries(
        self, src: np.ndarray, dst: np.ndarray, targets: np.ndarray, pair: np.ndarray,
        n_pairs: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Per pair of :meth:`_build_transitions`, the ``targets``,
        ``group`` and ``candidates`` of the link table over its (``src``,
        ``dst``) node elements."""
        n_links = len(self.link_names)
        pids = self.pair_id[src, dst]
        valid = np.flatnonzero(pids >= 0)
        p = pids[valid]
        pool_idx, row_of = ragged_gather(self.pair_start[p], self.pair_len[p])
        owner = pair[valid][row_of]
        seen = np.zeros(n_pairs * n_links, dtype=bool)
        seen[owner * n_links + self.pool_link[pool_idx]] = True
        used = np.flatnonzero(seen)
        return (
            _split(targets[valid][row_of], owner, n_pairs),
            _split(self.pool_class[pool_idx], owner, n_pairs),
            _split(used % n_links, used // n_links, n_pairs),
        )

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


def _split(values: np.ndarray, owner: np.ndarray, n: int) -> list[np.ndarray]:
    """``values``, ordered by ``owner`` in ``range(n)``, cut into one
    read-only run per owner."""
    values.flags.writeable = False
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    return [values[i:j] for i, j in zip([0, *ends[:-1]], ends)]


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

    n1, n2 = sub.endpoint_node[var_src_ep], sub.endpoint_node[var_dst_ep]
    lat = sub.latency[n1, n2]
    # +inf over a failed pair is a flow that cannot carry (``ChainFlow``
    # blocks it); only a pair with no entry either way is an error.
    unknown = np.isinf(lat) & ~sub.known[n1, n2]
    if unknown.any():
        bad = int(np.argmax(unknown))
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
