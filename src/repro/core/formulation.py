"""The chain-flow formulation of Section 4.3, assembled once.

The paper has one optimisation model over the variables ``x_{c z n1 n2}``
-- demand coverage, flow conservation (Equation 5), compute load
(Equation 4) and network load (Equations 6-7) -- and obtains cloud
capacity planning and VNF placement by adding a few columns to it.  This
module is the only place those constraints are written down:

- :class:`ChainFlow` derives the shared blocks from the columnar model
  views (:mod:`repro.core.columns`) as index arrays -- and prices routes
  over them for column generation (``cheapest_paths``) --, and
  :class:`Program` lays them out as COO triplets.  A program
  (:mod:`repro.core.lp` for routing, :mod:`repro.core.capacity` for the
  two planners) only decides the *order* of the blocks and adds what is
  its own.  Every entry carries a kind saying how it scales with the
  current demands, so a re-solve after a demand change is one
  :meth:`Program.refresh` over the cached structure.
- ``tests/reference/scalar_rows.py`` generates the same rows with
  per-variable Python loops: the oracle the vectorised blocks are
  property-tested against (equal matrices within 1e-9).
- :func:`solved_flows` turns a solved program's flow values into the
  routing solution, its rows and -- :func:`certify`, from the columnar
  views alone -- the certificate of their feasibility.
- :class:`StructureCache` is the LRU that keeps built programs -- and the
  warm column-generation solver hanging off each -- across solves, and
  :func:`solve` is the one solve path: column generation on the direct
  HiGHS backend, for every objective (a program infeasible at zero flow
  starts with phase I in the master, :mod:`repro.core.highs`).
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np
from scipy.sparse import csc_matrix, get_index_dtype

from repro.core import highs as highs_backend
from repro.core.columns import ragged_gather
from repro.core.model import NetworkModel
from repro.core.routes import Certificate, RoutingSolution

# Data-entry kinds: how a cached base coefficient scales with the current
# demands.  KIND_CONST entries never change on a cache hit.
KIND_CONST = 0
KIND_TOTAL = 1  # base * (w_cz + v_cz)
KIND_FWD = 2  # base * w_cz
KIND_REV = 3  # base * v_cz


def _inverse_permutation(rank: np.ndarray) -> np.ndarray:
    out = np.empty(len(rank), dtype=np.int64)
    out[rank] = np.arange(len(rank), dtype=np.int64)
    return out


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Columnar assembly
# ---------------------------------------------------------------------------


class ChainFlow:
    """The blocks every Section 4.3 program shares, as index arrays.

    Variable order is that of :func:`repro.core.columns.build_variable_columns`.
    Row groups come out in the order the scalar reference emits them:
    conservation rows stage-major then by destination position, (VNF,
    site) rows sorted by (VNF name, site name), per-site rows sorted by
    site name and link rows sorted by link name.
    """

    def __init__(self, model: NetworkModel, links: bool):
        sub = model.substrate_columns()
        #: The chain-stage table this structure was built from.
        self.chains = ch = model.chain_columns()
        vc = model.variable_columns()
        self.n_flow = n = vc.n_vars
        self.n_chains = len(ch.chain_names)
        self.var_stage = var_stage = vc.var_stage
        self.var_src_ep, self.var_dst_ep = vc.var_src_ep, vc.var_dst_ep
        self.var_latency = vc.var_latency
        var_dst_vnf = ch.stage_dst_vnf[var_stage]
        var_src_vnf = ch.stage_src_vnf[var_stage]

        # -- demand coverage: the stage-1 flows of every chain ---------------
        self.stage1_vars = np.flatnonzero(ch.stage_z[var_stage] == 1)
        self.cover_chain = ch.stage_chain[var_stage][self.stage1_vars]

        # -- flow conservation (Equation 5): one row per destination of
        # every stage z < num_stages, +1 on the flows arriving there and
        # -1 on the stage z + 1 flows leaving it.
        cons_per_stage = np.where(ch.stage_dst_vnf >= 0, ch.dst_len, 0)
        cons_start = np.cumsum(cons_per_stage) - cons_per_stage
        self.n_cons = int(cons_per_stage.sum())
        self.cons_chain = np.repeat(ch.stage_chain, cons_per_stage)
        incoming = np.flatnonzero(var_dst_vnf >= 0)
        outgoing = np.flatnonzero(var_src_vnf >= 0)
        self.cons_rows = np.concatenate([
            cons_start[var_stage[incoming]] + vc.var_dst_pos[incoming],
            cons_start[var_stage[outgoing] - 1] + vc.var_src_pos[outgoing],
        ])
        self.cons_cols = np.concatenate([incoming, outgoing])
        self.cons_data = np.concatenate(
            [np.ones(incoming.size), -np.ones(outgoing.size)]
        )

        # -- compute load (Equation 4): the same entries load the VNF at
        # a flow's destination site and the VNF at its source site; they
        # are grouped once per (VNF, site) and once per site.
        self.cmp_vars = self.cons_cols
        cmp_vnf = np.concatenate([var_dst_vnf[incoming], var_src_vnf[outgoing]])
        self.cmp_site = cmp_site = (
            np.concatenate([vc.var_dst_ep[incoming], vc.var_src_ep[outgoing]])
            - sub.n_nodes
        )
        self.cmp_load = sub.vnf_load[cmp_vnf]
        site_stride = max(len(sub.site_names), 1)
        site_order = _inverse_permutation(sub.site_rank)
        uniq_pairs, self.pair_inverse = np.unique(
            sub.vnf_rank[cmp_vnf] * site_stride + sub.site_rank[cmp_site],
            return_inverse=True,
        )
        self.pair_vnf = _inverse_permutation(sub.vnf_rank)[uniq_pairs // site_stride]
        self.pair_site = site_order[uniq_pairs % site_stride]
        uniq_sites, self.site_inverse = np.unique(
            sub.site_rank[cmp_site], return_inverse=True
        )
        self.load_sites = site_order[uniq_sites]

        # -- network load (Equations 6-7): the forward demand of a flow
        # crosses the links of n1 -> n2, its reverse demand those of
        # n2 -> n1, each by its routing fraction.  An entry exists only
        # where the demand is non-zero (hence demand positivity in
        # ``structure_digest``).
        self.has_links = bool(links and sub.link_names and len(sub.pair_start))
        lnk: tuple[list, ...] = ([], [], [], [])  # variable, link, fraction, kind
        if self.has_links:
            n1 = sub.endpoint_node[vc.var_src_ep]
            n2 = sub.endpoint_node[vc.var_dst_ep]
            for kind, demand, a, b in (
                (KIND_FWD, ch.stage_fwd, n1, n2),
                (KIND_REV, ch.stage_rev, n2, n1),
            ):
                pid = sub.pair_id[a, b]
                sel = np.flatnonzero((demand[var_stage] > 0) & (pid >= 0))
                pids = pid[sel]
                pool_idx, rows_of = ragged_gather(
                    sub.pair_start[pids], sub.pair_len[pids]
                )
                lnk[0].append(sel[rows_of])
                lnk[1].append(sub.pool_link[pool_idx])
                lnk[2].append(sub.pool_frac[pool_idx])
                lnk[3].append(np.full(pool_idx.size, kind, dtype=np.int8))
        self.lnk_vars, lnk_link, self.lnk_frac, self.lnk_kind = (
            _concat(parts, dtype)
            for parts, dtype in zip(lnk, (np.int64, np.int64, float, np.int8))
        )
        uniq_links, self.link_inverse = np.unique(
            sub.link_rank[lnk_link], return_inverse=True
        )
        self.load_links = _inverse_permutation(sub.link_rank)[uniq_links]

        # Where each chain's flows sit, and what makes two such blocks the
        # same variables in the same order (the routes a solved program
        # ended on are carried to its successor block by block).
        first = vc.stage_var_start[ch.chain_stage_start]
        self.chain_blocks = {
            name: (
                int(first[i]),
                (c.ingress, c.egress, tuple(c.vnfs), int(first[i + 1] - first[i])),
            )
            for i, (name, c) in enumerate(model.chains.items())
        }

        # Path-pricing layout: the variable of every (depth, chain,
        # source, destination), fronts padded to the widest (two at
        # least) with ``n``, which ``cheapest_paths`` holds at +inf.  A
        # chain shorter than the deepest waits at its ingress first --
        # ``n + 1``, free -- so that every chain ends at the last depth.
        stage0 = np.asarray(ch.chain_stage_start[:-1], dtype=np.int64)
        depth = np.diff(ch.chain_stage_start)
        self.depth = int(depth.max(initial=0))
        src = np.arange(
            max(ch.src_len.max(initial=2), ch.dst_len.max(initial=2))
        )[:, None]
        self._var = np.full((self.depth, self.n_chains, len(src), len(src)), n)
        for z in range(self.depth):
            waits = z < self.depth - depth
            self._var[z, waits, 0, 0] = n + 1
            s = (stage0 + z - (self.depth - depth))[~waits, None, None]
            real = (src < ch.src_len[s]) & (src.T < ch.dst_len[s])
            self._var[z, ~waits] = np.where(
                real, vc.stage_var_start[s] + src * ch.dst_len[s] + src.T, n
            )

    def cheapest_paths(self, reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every chain's two cheapest ingress-to-egress routes that leave
        its last front (the sites of its last VNF) from different sites,
        when flow variable ``v`` costs ``reduced[v]`` -- the summed costs
        ``(n_chains, 2)``, +inf where the last front is one site, and the
        routes' variables ``(n_chains, 2, depth)``, one per stage, ``-1``
        before a shorter chain's first: Equation 8's recurrence, all
        chains a stage depth at a time, both routes from the one forward
        pass.  A route enters a conservation row (Equation 5) with +1 and
        leaves it with -1, so no dual on those rows moves a reduced-cost
        sum."""
        step = np.concatenate([reduced[: self.n_flow], [np.inf, 0.0]])[self._var]
        best = np.full(step.shape[1:3], np.inf)
        best[:, 0] = 0.0  # one ingress per chain
        parents = []
        for hop in step:
            via = best[:, :, None] + hop
            parents.append(via.argmin(axis=1))
            best = via.min(axis=1)
        into = via[:, :, 0]  # and one egress
        src = np.argsort(into, axis=1, kind="stable")[:, :2]
        costs = np.take_along_axis(into, src, axis=1)
        arcs = np.empty((self.n_chains, 2, self.depth), dtype=np.int64)
        rows = np.arange(self.n_chains)[:, None]
        at = np.zeros_like(src)
        for z in range(self.depth - 1, -1, -1):
            arcs[:, :, z] = self._var[z][rows, src, at]
            if z:
                at, src = src, parents[z - 1][rows, src]
        arcs[arcs >= self.n_flow] = -1
        return costs, arcs

    def release_entries(self) -> None:
        """Drop the per-entry arrays once a program has folded them into
        its triplets: a cached structure keeps only the per-variable and
        per-row arrays (half the memory of the triplets again otherwise)."""
        for name in (
            "cons_rows", "cons_cols", "cons_data", "cmp_vars", "cmp_site",
            "cmp_load", "pair_inverse", "site_inverse", "lnk_vars", "lnk_frac",
            "lnk_kind", "link_inverse",
        ):
            delattr(self, name)

    def pair_caps(self, sub, missing: float) -> np.ndarray:
        """Capacity of every (VNF, site) row under ``sub``'s catalog
        (``missing`` where the VNF is not deployed at the site)."""
        caps = sub.vnf_cap[self.pair_vnf, self.pair_site]
        return np.where(np.isnan(caps), missing, caps)


_UB_DTYPES = (np.int64, np.int64, float, np.int8, np.int64)
_EQ_DTYPES = (np.int64, np.int64, float)


class Program:
    """One program's structure: everything that survives demand changes.

    ``A_ub x <= b_ub`` and ``A_eq x = b_eq`` as COO triplets over
    ``n_total`` columns, the first ``n_flow`` of which are the flow
    variables.  Rows are opened in the order the program wants them
    (``open_ub`` / ``open_eq`` return the first new row); entries go onto
    open rows, the shared blocks through ``conservation`` and ``*_rows``.
    """

    def __init__(self, flow: ChainFlow, n_total: int):
        self.flow = flow
        self.n_flow = flow.n_flow
        self.n_total = n_total
        self.b_ub = np.zeros(0)
        self.b_eq = np.zeros(0)
        self._ub: tuple[list, ...] = ([], [], [], [], [])
        self._eq: tuple[list, ...] = ([], [], [])

    def open_ub(self, bounds) -> int:
        first = len(self.b_ub)
        self.b_ub = np.concatenate([self.b_ub, np.asarray(bounds, dtype=float)])
        return first

    def open_eq(self, values) -> int:
        first = len(self.b_eq)
        self.b_eq = np.concatenate([self.b_eq, np.asarray(values, dtype=float)])
        return first

    def ub(self, rows, cols, base, kind=KIND_CONST, stage=-1) -> None:
        """Inequality entries; ``kind`` says how ``base`` scales with the
        demand of stage-table row ``stage``.  Scalars broadcast."""
        for store, part, dtype in zip(
            self._ub, (rows, cols, base, kind, stage), _UB_DTYPES
        ):
            store.append(np.broadcast_to(np.asarray(part, dtype), np.shape(rows)))

    def eq(self, rows, cols, data) -> None:
        """Equality entries (all demand-independent)."""
        for store, part, dtype in zip(self._eq, (rows, cols, data), _EQ_DTYPES):
            store.append(np.broadcast_to(np.asarray(part, dtype), np.shape(rows)))

    def conservation(self, row_of: np.ndarray) -> None:
        """Equation 5; ``row_of[r]`` is where conservation row ``r`` goes."""
        flow = self.flow
        self._cons_rows = row_of
        self.eq(row_of[flow.cons_rows], flow.cons_cols, flow.cons_data)

    def load_rows(self, group: np.ndarray, bounds) -> int:
        """Equation 4: one row per group of compute entries, load <=
        ``bounds`` -- ``flow.pair_inverse`` groups them per (VNF, site),
        ``flow.site_inverse`` per site."""
        flow, first = self.flow, self.open_ub(bounds)
        self.ub(first + group, flow.cmp_vars, flow.cmp_load,
                KIND_TOTAL, flow.var_stage[flow.cmp_vars])
        return first

    def link_load_rows(self, bounds) -> int:
        """Equations 6-7 per link carrying chain traffic: <= ``bounds``."""
        flow, first = self.flow, self.open_ub(bounds)
        self.ub(first + flow.link_inverse, flow.lnk_vars, flow.lnk_frac,
                flow.lnk_kind, flow.var_stage[flow.lnk_vars])
        return first

    def freeze(self) -> None:
        """Concatenate the blocks, fix the CSC pattern of ``[A_ub; A_eq]``
        and pre-split the refresh indices."""
        ub_rows, ub_cols, self.ub_base, kind, stage = (
            _concat(parts, dtype) for parts, dtype in zip(self._ub, _UB_DTYPES)
        )
        eq_rows, eq_cols, self.eq_data = (
            _concat(parts, dtype) for parts, dtype in zip(self._eq, _EQ_DTYPES)
        )
        self._scaled = []
        for scaling in (KIND_TOTAL, KIND_FWD, KIND_REV):
            idx = np.flatnonzero(kind == scaling)
            self._scaled.append((idx, stage[idx]))
        del self._ub, self._eq
        self.flow.release_entries()

        # The pattern survives every demand change, so the sort behind a
        # COO -> CSC conversion is done here, once: entries ordered by
        # (column, row), those on one element adjacent and in entry order.
        n_rows = len(self.b_ub) + len(self.b_eq)
        key = np.concatenate([ub_cols, eq_cols]) * n_rows + np.concatenate(
            [ub_rows, eq_rows + len(self.b_ub)]
        )
        order = np.argsort(key, kind="stable")
        key = key[order]
        opens = np.ones(len(key), dtype=bool)
        opens[1:] = key[1:] != key[:-1]
        idx_dtype = get_index_dtype(maxval=max(len(key), n_rows, self.n_total))
        elements = key[opens]
        self._indices = (elements % n_rows).astype(idx_dtype)
        self._indptr = np.zeros(self.n_total + 1, dtype=idx_dtype)
        np.cumsum(
            np.bincount(elements // n_rows, minlength=self.n_total),
            out=self._indptr[1:],
        )
        #: The one matrix :func:`solve` hands the solver, its data per solve.
        self.view = csc_matrix(
            (np.zeros(len(elements)), self._indices, self._indptr), shape=(n_rows, self.n_total)
        )
        # Each element's value starts as its first entry; the few later
        # entries of an element (a flow that stays at one site loads it
        # at both ends) are added onto it.
        self._first = order[opens]
        self._extra_slot = (np.cumsum(opens) - 1)[~opens]
        self._extra = order[~opens]

        # Column generation holds routes, and a route crosses a row of
        # Equation 5 with +1 and -1: its master keeps the other rows,
        # whose share of the pattern is fixed here as well.  The solver,
        # warm-startable, stays with this structure across solves.
        kept = np.ones(n_rows, dtype=bool)
        kept[len(self.b_ub) + self._cons_rows] = False
        entries = kept[self._indices]
        self.cg_solver = highs_backend.ColumnGenSolver(
            self.flow, np.flatnonzero(kept), entries,
            (np.cumsum(kept) - 1).astype(idx_dtype)[self._indices[entries]],
            np.concatenate([[0], np.cumsum(entries)]).astype(idx_dtype)[self._indptr],
        )

    def refresh(self, stage_total, stage_fwd, stage_rev) -> np.ndarray:
        """The UB data vector under the given per-stage demands."""
        data = self.ub_base.copy()
        for (idx, stage), scale in zip(
            self._scaled, (stage_total, stage_fwd, stage_rev)
        ):
            if idx.size:
                data[idx] *= scale[stage]
        return data

    def values(self, data_ub: np.ndarray) -> np.ndarray:
        """The CSC data of ``[A_ub; A_eq]`` with ``data_ub`` from
        :meth:`refresh`, in canonical order (sorted indices, entries of
        one element summed): one gather through the frozen pattern.

        The array equals, bit for bit, what scipy's COO -> CSC conversion
        gives: an element holds at most two entries here (one for each
        end of a flow) and a two-term sum does not depend on its order;
        scipy's order for three or more is unspecified (``std::sort``),
        ours is entry order.
        """
        entries = np.concatenate([data_ub, self.eq_data])
        data = entries[self._first]
        np.add.at(data, self._extra_slot, entries[self._extra])
        return data

    def matrix(self, data_ub: np.ndarray) -> csc_matrix:
        """``[A_ub; A_eq]`` as a new CSC matrix over :meth:`values`."""
        return csc_matrix(
            (self.values(data_ub), self._indices, self._indptr),
            shape=self.view.shape,
        )


def certify(sub, ch, stage, src, dst, value) -> Certificate:
    """The :class:`~repro.core.routes.Certificate` of the flows ``value``
    of stage-table rows ``stage`` between endpoints ``src`` and ``dst``.

    Everything comes from the columnar views' endpoint, VNF and link
    index arrays, nothing from a program's matrix or the solver's row
    activity: what certifies a solution shares no code with what
    assembled the program it solves.
    """
    n_sites, n_endpoints = len(sub.site_names), len(sub.endpoint_names)
    into, out_of = ch.stage_dst_vnf[stage], ch.stage_src_vnf[stage]
    arrive, leave = np.flatnonzero(into >= 0), np.flatnonzero(out_of >= 0)
    # Every end of a flow that is at a VNF: the flow, the VNF, the
    # endpoint, and +1 where the flow arrives, -1 where it leaves.
    ends = np.concatenate([arrive, leave])
    vnf = np.concatenate([into[arrive], out_of[leave]])
    at = np.concatenate([dst[arrive], src[leave]])
    sign = np.repeat([1.0, -1.0], [arrive.size, leave.size])

    # Equation 4: a flow loads the VNF it arrives at and the VNF it leaves.
    site = at - sub.n_nodes
    pair_load = np.bincount(
        sub.vnf_rank[vnf] * n_sites + sub.site_rank[site],
        weights=sub.vnf_load[vnf] * (ch.stage_total[stage] * value)[ends],
        minlength=len(sub.vnf_names) * n_sites,
    )
    site_load = pair_load.reshape(-1, n_sites).sum(axis=0)

    # Equations 6-7: forward demand travels n1 -> n2, reverse demand
    # n2 -> n1; a node pair's traffic crosses its links by their routing
    # fractions (a pair without routing, id -1, lands in a spare bin).
    n1, n2 = sub.endpoint_node[src], sub.endpoint_node[dst]
    pair_traffic = np.bincount(
        np.concatenate([sub.pair_id[n1, n2], sub.pair_id[n2, n1]]) + 1,
        weights=np.concatenate([ch.stage_fwd[stage] * value, ch.stage_rev[stage] * value]),
        minlength=len(sub.pair_len) + 1,
    )
    link_traffic = np.bincount(
        sub.pool_link_rank,
        weights=pair_traffic[1:][sub.pool_pair] * sub.pool_frac,
        minlength=len(sub.link_names),
    )

    # Per chain: the stage-1 flows sum to at most 1, and (Equation 5)
    # what arrives at a site at stage z leaves it at stage z + 1 -- the
    # stage table lists a chain's stages consecutively, so the stage a
    # flow leaves behind is the row before its own.
    first = np.flatnonzero(ch.stage_z[stage] == 1)
    routed = np.bincount(ch.stage_chain[stage[first]], weights=value[first])
    _, where = np.unique(
        (stage[ends] - (sign < 0)) * n_endpoints + at, return_inverse=True
    )
    imbalance = np.bincount(where, weights=sign * value[ends])
    excess = max(
        routed.max(initial=1.0) - 1.0,
        np.abs(imbalance).max(initial=0.0),
        -value.min(initial=0.0),
        np.inf if np.isnan(sub.vnf_cap[vnf, site]).any() else 0.0,
    )
    return Certificate(
        float(excess), np.concatenate([pair_load, site_load, link_traffic])
    )


def _kept(variables, flows: np.ndarray) -> tuple:
    """The flows above ``EPSILON`` as ``certify`` takes them: stage-table
    row, source and destination endpoint, value.  ``variables`` says what
    each variable is (``var_stage`` / ``var_src_ep`` / ``var_dst_ep``)."""
    keep = np.flatnonzero(flows > RoutingSolution.EPSILON)
    return (
        variables.var_stage[keep],
        variables.var_src_ep[keep],
        variables.var_dst_ep[keep],
        flows[keep],
    )


def _assemble(model: NetworkModel, stage, src, dst, value) -> RoutingSolution:
    """The :class:`RoutingSolution` of those flows, in variable order:
    the one place they leave the arrays, one ``tolist()`` each."""
    sub = model.substrate_columns()
    ch = model.chain_columns()
    names, endpoints = ch.chain_names, sub.endpoint_names
    table: dict[tuple[str, int], dict[tuple[str, str], float]] = {}
    for c, z, a, b, x in zip(
        ch.stage_chain[stage].tolist(), ch.stage_z[stage].tolist(),
        src.tolist(), dst.tolist(), value.tolist(),
    ):
        table.setdefault((names[c], z), {})[(endpoints[a], endpoints[b])] = x
    return RoutingSolution.assemble(model, [table])


def solved_flows(
    model: NetworkModel, variables, flows: np.ndarray
) -> tuple[RoutingSolution, Certificate]:
    """What a solve hands on, from the flow-variable values: the
    :class:`RoutingSolution` and its certificate, both from the one set
    of values above ``EPSILON``.  ``variables`` is the model's variable
    columns, or the :class:`ChainFlow` of a cached program of its
    structure -- built from a model that lists nodes, sites, VNFs and
    chains in the same order (the precondition ``Program.bounds``
    already has) --, which spares building them."""
    kept = _kept(variables, flows)
    return _assemble(model, *kept), certify(
        model.substrate_columns(), model.chain_columns(), *kept
    )


def flow_solution(model: NetworkModel, flows: np.ndarray) -> RoutingSolution:
    """A :class:`RoutingSolution` from the flow-variable values."""
    return _assemble(model, *_kept(model.variable_columns(), flows))


# ---------------------------------------------------------------------------
# Structure cache and solve
# ---------------------------------------------------------------------------


class StructureCache:
    """LRU of built programs keyed on ``(structure digest, *kind)``,
    where the kind starts with the insertion order of the model's
    catalogues (``SubstrateColumns.order``): the digest sorts, a
    program's column ids do not.

    A hit hands back the program built for an earlier model of the same
    structure, with its warm :class:`~repro.core.highs.ColumnGenSolver`.
    A miss builds the program and starts its solver from the routes the
    cached program of the same kind it shares the most chains with ended
    on (:meth:`_carry_pool`).  All of that is state of the entries, so
    :meth:`clear` returns the cache to what it was at import time.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: "OrderedDict[tuple, Program]" = OrderedDict()
        self.hits = 0
        self.rebuilds = 0

    def get(self, key: tuple, build) -> tuple[Program, bool]:
        """``(program, was_cached)``; ``build()`` runs on a miss."""
        program = self._entries.get(key)
        if program is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return program, True
        program = build()
        self._carry_pool(key, program)
        self._entries[key] = program
        self.rebuilds += 1
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
        return program, False

    def _carry_pool(self, key: tuple, program: Program) -> None:
        """Start a new program's column generation where its predecessor's
        ended.

        Chain churn changes the structure but leaves most chains, hence
        most column blocks, as they were.  The predecessor is the solved
        program of the same kind sharing the most chains (same name, same
        block shape; the most recently used on a tie); what crosses is
        its *support* -- the routes its last optimum left basic or
        non-zero -- of the shared chains, shifted by the block offset.
        """
        blocks = program.flow.chain_blocks

        def shared(other: Program) -> list[tuple[int, int, int]]:
            """(start there, length, start here) of each block both hold."""
            return [
                (start, shape[-1], blocks[name][0])
                for name, (start, shape) in other.flow.chain_blocks.items()
                if name in blocks and blocks[name][1] == shape
            ]

        kin = [o for k, o in reversed(self._entries.items()) if k[1:] == key[1:]]
        best = max(kin, key=lambda other: len(shared(other)), default=None)
        support = best.cg_solver.support() if best is not None else None
        if support is None:
            return
        # A route lies in one block, and the pads in front absorb a depth
        # difference: a shared chain is no deeper than either program.
        last, depth = support[:, -1], program.flow.depth
        width = min(depth, support.shape[1])
        routes = np.full((len(support), depth), -1)
        routes[:, -width:] = support[:, -width:]
        keep = np.zeros(len(support), dtype=bool)
        for start, length, mine in shared(best):
            block = (last >= start) & (last < start + length)
            routes[block] += (mine - start) * (routes[block] >= 0)
            keep |= block
        program.cg_solver.seed = routes[keep]

    def stats(self) -> dict[str, int]:
        return {
            "matrix_reuse_hits": self.hits,
            "matrix_rebuilds": self.rebuilds,
            "cached_structures": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.rebuilds = 0


def solve(
    program: Program,
    cost: np.ndarray,
    data_ub: np.ndarray,
    b_ub: np.ndarray,
    col_upper: np.ndarray,
) -> tuple:
    """Solve a program under refreshed data through its warm
    :class:`~repro.core.highs.ColumnGenSolver`, as one CSC ``[ub; eq]``
    with row bounds (:attr:`Program.view`).  Returns ``(x, objective,
    solver seconds)``; ``x`` and ``objective`` are ``None`` when the
    program is infeasible."""
    row_lower = np.concatenate([np.full(len(b_ub), -np.inf), program.b_eq])
    row_upper = np.concatenate([b_ub, program.b_eq])
    start = time.perf_counter()
    program.view.data = program.values(data_ub)
    x, objective = program.cg_solver.solve(
        cost, program.view, row_lower, row_upper,
        np.zeros(program.n_total), col_upper,
    )
    return x, objective, time.perf_counter() - start
