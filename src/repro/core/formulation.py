"""The chain-flow formulation of Section 4.3, assembled once.

The paper has one optimisation model over the variables ``x_{c z n1 n2}``
-- demand coverage, flow conservation (Equation 5), compute load
(Equation 4) and network load (Equations 6-7) -- and obtains cloud
capacity planning and VNF placement by adding a few columns to it.  This
module is the only place those constraints are written down:

- :class:`ChainFlow` derives the shared blocks from the columnar model
  views (:mod:`repro.core.columns`) as index arrays -- and prices routes
  over them for column generation (``cheapest_paths``) --, and
  :class:`Program` lays them out in CSC slot order.  A program
  (:mod:`repro.core.lp` for routing, :mod:`repro.core.capacity` for the
  two planners) only decides the *order* of the blocks and adds what is
  its own.  Every entry carries a kind saying how it scales with the
  current demands, so a re-solve after a demand change is one
  :meth:`Program.refresh` over the cached structure; and every chain
  owns a contiguous slice of columns, so a program built after a
  chain-set change copies those of the chains its predecessor held.
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

from repro.core import highs as highs_backend
from repro.core.columns import distinct, ragged_gather
from repro.core.errors import ReproError
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

    Each chain owns one contiguous block of columns.  Given the ``prior``
    program of the same kind, every chain it holds as well -- same name,
    endpoints, VNFs and zero/non-zero stage demands, ``prior`` built on
    the same capacity-free substrate -- keeps ``prior``'s columns
    (:attr:`splice`, copied over by :meth:`Program.freeze`); only the
    other chains' entries are derived here (:attr:`fresh`).  With no
    ``prior`` every chain is such an other chain.
    """

    def __init__(self, model: NetworkModel, links: bool, prior: "Program | None" = None):
        sub = model.substrate_columns()
        #: The chain-stage table this structure was built from.
        self.chains = ch = model.chain_columns()
        vc = model.variable_columns()
        self.n_flow = n = vc.n_vars
        self.n_chains = len(ch.chain_names)
        self.var_stage = var_stage = vc.var_stage
        self.var_src_ep, self.var_dst_ep = vc.var_src_ep, vc.var_dst_ep
        #: Flows across a failed pair (+inf delay): they cost nothing
        #: here, no route is priced through them and the placement MIP
        #: bounds them at zero, so none carries.
        blocked = np.isinf(vc.var_latency)
        self.blocked = np.flatnonzero(blocked)
        self.var_latency = np.where(blocked, 0.0, vc.var_latency)
        var_dst_vnf = ch.stage_dst_vnf[var_stage]
        var_src_vnf = ch.stage_src_vnf[var_stage]
        #: What a program must have been built on to hand its columns on.
        self.substrate = (model._structure_fragments(), sub.order)
        self.has_links = bool(links and sub.link_names and len(sub.pair_start))

        # Where each chain's flows sit, and what makes two such blocks the
        # same variables in the same order (the routes a solved program
        # ended on are carried to its successor block by block).
        self.chain_first = first = vc.stage_var_start[ch.chain_stage_start]
        self.chain_blocks = {
            name: (
                int(first[i]),
                (c.ingress, c.egress, tuple(c.vnfs), int(first[i + 1] - first[i])),
            )
            for i, (name, c) in enumerate(model.chains.items())
        }
        #: Per chain what ``structure_digest`` reduces it to: name,
        #: endpoints, VNFs, which stage demands are non-zero.
        self.identity = {name: c._structure_document for name, c in model.chains.items()}
        runs = self._shared(prior)
        #: How many chains' columns come from ``prior``.
        self.reused = sum(i1 - i0 for i0, i1, _j0 in runs)
        fresh = np.ones(self.n_chains, dtype=bool)
        for i0, i1, j0 in runs:
            fresh[j0 : j0 + i1 - i0] = False
        fresh = np.repeat(fresh, np.diff(first))

        # -- demand coverage: the stage-1 flows of every chain ---------------
        self.stage1_vars = np.flatnonzero(ch.stage_z[var_stage] == 1)
        cover_chain = ch.stage_chain[var_stage][self.stage1_vars]
        mine = fresh[self.stage1_vars]

        # -- flow conservation (Equation 5): one row per destination of
        # every stage z < num_stages, +1 on the flows arriving there and
        # -1 on the stage z + 1 flows leaving it.
        cons_per_stage = np.where(ch.stage_dst_vnf >= 0, ch.dst_len, 0)
        cons_start = np.cumsum(cons_per_stage) - cons_per_stage
        #: First conservation row of every stage row, then their number.
        self.cons_start = np.append(cons_start, cons_per_stage.sum())
        self.n_cons = int(self.cons_start[-1])
        self.cons_chain = np.repeat(ch.stage_chain, cons_per_stage)
        incoming = np.flatnonzero((var_dst_vnf >= 0) & fresh)
        outgoing = np.flatnonzero((var_src_vnf >= 0) & fresh)
        cmp_vars = np.concatenate([incoming, outgoing])

        # -- compute load (Equation 4): the same entries load the VNF at
        # a flow's destination site and the VNF at its source site; they
        # are grouped once per (VNF, site) and once per site.
        cmp_vnf = np.concatenate([var_dst_vnf[incoming], var_src_vnf[outgoing]])
        cmp_site = (
            np.concatenate([vc.var_dst_ep[incoming], vc.var_src_ep[outgoing]])
            - sub.n_nodes
        )
        stride = max(len(sub.site_names), 1)

        # -- network load (Equations 6-7): the forward demand of a flow
        # crosses the links of n1 -> n2, its reverse demand those of
        # n2 -> n1, each by its routing fraction.  An entry exists only
        # where the demand is non-zero (hence demand positivity in
        # ``structure_digest``).
        lnk: tuple[list, ...] = ([], [], [], [])  # variable, link, fraction, kind
        if self.has_links:
            n1 = sub.endpoint_node[vc.var_src_ep]
            n2 = sub.endpoint_node[vc.var_dst_ep]
            for kind, demand, a, b in (
                (KIND_FWD, ch.stage_fwd, n1, n2),
                (KIND_REV, ch.stage_rev, n2, n1),
            ):
                pid = sub.pair_id[a, b]
                sel = np.flatnonzero((demand[var_stage] > 0) & (pid >= 0) & fresh)
                pids = pid[sel]
                pool_idx, rows_of = ragged_gather(
                    sub.pair_start[pids], sub.pair_len[pids]
                )
                lnk[0].append(sel[rows_of])
                lnk[1].append(sub.pool_link[pool_idx])
                lnk[2].append(sub.pool_frac[pool_idx])
                lnk[3].append(np.full(pool_idx.size, kind, dtype=np.int8))
        lnk_vars, lnk_link, lnk_frac, lnk_kind = (
            _concat(parts, dtype)
            for parts, dtype in zip(lnk, (np.int64, np.int64, float, np.int8))
        )

        # -- the resources the load rows are for, in name order: those
        # the fresh entries load and those the spliced columns do.
        keys = {
            "pair": sub.vnf_rank[cmp_vnf] * stride + sub.site_rank[cmp_site],
            "site": sub.site_rank[cmp_site],
            "link": sub.link_rank[lnk_link],
        }
        sizes = {"pair": len(sub.vnf_names) * stride, "site": stride,
                 "link": len(sub.link_names)}
        spliced = self._loaded(prior, runs)
        rank = {}
        for group, size in sizes.items():
            present, rank[group] = distinct(size, keys[group], *spliced.get(group, ()))
            setattr(self, f"{group}_key", present)
        self.pair_vnf = _inverse_permutation(sub.vnf_rank)[self.pair_key // stride]
        site_order = _inverse_permutation(sub.site_rank)
        self.pair_site = site_order[self.pair_key % stride]
        self.load_sites = site_order[self.site_key]
        self.load_links = _inverse_permutation(sub.link_rank)[self.link_key]

        #: The fresh chains' entries of every shared block -- per block the
        #: group-local row of each entry, its variable, base coefficient,
        #: kind -- until a program has folded them in.
        self.fresh = {
            "cover": (cover_chain[mine], self.stage1_vars[mine], 1.0, KIND_CONST),
            "cons": (
                np.concatenate([
                    cons_start[var_stage[incoming]] + vc.var_dst_pos[incoming],
                    cons_start[var_stage[outgoing] - 1] + vc.var_src_pos[outgoing],
                ]),
                cmp_vars,
                np.concatenate([np.ones(incoming.size), -np.ones(outgoing.size)]),
                KIND_CONST,
            ),
            "pair": (rank["pair"][keys["pair"]], cmp_vars, sub.vnf_load[cmp_vnf], KIND_TOTAL),
            "site": (rank["site"][keys["site"]], cmp_vars, sub.vnf_load[cmp_vnf], KIND_TOTAL),
            "link": (rank["link"][keys["link"]], lnk_vars, lnk_frac, lnk_kind),
        }
        self.splice = self._plan(prior, runs, rank)

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
        if self.blocked.size:
            self._var[np.isin(self._var, self.blocked)] = n

    def _shared(self, prior: "Program | None") -> list[tuple[int, int, int]]:
        """The chains whose columns ``prior`` hands on -- same identity,
        ``prior`` built on this capacity-free substrate -- as runs
        ``(i0, i1, j0)``: its chains ``i0 .. i1 - 1`` are this flow's from
        ``j0`` on."""
        runs: list[list[int]] = []
        if prior is None or prior.flow.substrate != self.substrate:
            return runs
        there = prior.flow.identity
        for j, (name, identity) in enumerate(self.identity.items()):
            if there.get(name) != identity:
                continue
            i = prior.flow.chains.chain_index[name]
            if runs and runs[-1][1] == i and runs[-1][2] + i - runs[-1][0] == j:
                runs[-1][1] += 1
            else:
                runs.append([i, i + 1, j])
        return [tuple(run) for run in runs]

    @staticmethod
    def _loaded(prior: "Program | None", runs: list) -> dict:
        """Per load-row group, the resource keys ``prior``'s columns of
        the chains in ``runs`` have entries on."""
        if not runs:
            return {}
        flow = prior.flow
        touched = np.zeros(prior.n_rows, dtype=bool)
        for i0, i1, _j0 in runs:
            slots = prior.indptr[flow.chain_first[[i0, i1]]]
            touched[prior.indices[slots[0] : slots[1]]] = True
        return {
            group: (getattr(flow, f"{group}_key")[touched[rows]],)
            for group, rows in prior.groups.items()
            if group in ("pair", "site", "link")
        }

    def _plan(self, prior, runs: list, rank: dict):
        """What :meth:`Program.freeze` needs to copy ``prior``'s columns
        of the chains in ``runs`` here: per run the columns there and
        here and how far its stage rows move, and per row group the local
        row here of every local row there (arbitrary where no copied
        column has an entry)."""
        if not runs:
            return None
        there = prior.flow
        local = {group: rank[group][getattr(there, f"{group}_key")]
                 for group in ("pair", "site", "link")}
        local["cover"] = np.zeros(there.n_chains, dtype=np.int64)
        local["cons"] = np.zeros(there.n_cons, dtype=np.int64)
        moves = []
        for i0, i1, j0 in runs:
            j1 = j0 + i1 - i0
            # A run's stage rows, and so its conservation rows, move as one.
            a, b = there.chains.chain_stage_start[i0], there.chains.chain_stage_start[i1]
            c = self.chains.chain_stage_start[j0]
            local["cover"][i0:i1] = np.arange(j0, j1)
            cons = there.cons_start[[a, b]]
            local["cons"][cons[0] : cons[1]] = self.cons_start[c] + np.arange(cons[1] - cons[0])
            moves.append((*there.chain_first[[i0, i1]], self.chain_first[j0], c - a))
        return prior, moves, local

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

    def pair_caps(self, sub, missing: float) -> np.ndarray:
        """Capacity of every (VNF, site) row under ``sub``'s catalog
        (``missing`` where the VNF is not deployed at the site)."""
        caps = sub.vnf_cap[self.pair_vnf, self.pair_site]
        return np.where(np.isnan(caps), missing, caps)


_ENTRY_DTYPES = (np.int64, np.int64, float, np.int64)


class Program:
    """One program's structure: everything that survives demand changes.

    ``A_ub x <= b_ub`` and ``A_eq x = b_eq`` over ``n_total`` columns,
    the first ``n_flow`` of which are the flow variables.  Rows are
    opened in the order the program wants them (``open_ub`` / ``open_eq``
    return the first new row); entries go onto open rows as triplets, the
    shared blocks through ``coverage``, ``conservation`` and
    ``load_rows``, which also record where their row group went
    (:attr:`groups`).  A program's own entries lie in its own columns,
    past ``n_flow``.

    :meth:`freeze` lays ``[A_ub; A_eq]`` out in CSC slot order.  A stored
    element is one or two entries, each a base coefficient times one
    *term* of ``[1, total, fwd, rev]`` per stage row, stage-major: term
    ``4 * stage + kind``.  A re-solve after a demand change is one
    :meth:`refresh` over the slots.
    """

    def __init__(self, flow: ChainFlow, n_total: int):
        self.flow = flow
        self.n_flow = flow.n_flow
        self.n_total = n_total
        self.b_ub = np.zeros(0)
        self.b_eq = np.zeros(0)
        self._ub: tuple[list, ...] = ([], [], [], [])
        self._eq: tuple[list, ...] = ([], [], [], [])
        #: Shared row group -> the row of each of its local rows (equality
        #: rows counted after the inequality rows once frozen).
        self.groups: dict = {}

    def open_ub(self, bounds) -> int:
        first = len(self.b_ub)
        self.b_ub = np.concatenate([self.b_ub, np.asarray(bounds, dtype=float)])
        return first

    def open_eq(self, values) -> int:
        first = len(self.b_eq)
        self.b_eq = np.concatenate([self.b_eq, np.asarray(values, dtype=float)])
        return first

    def ub(self, rows, cols, base, kind=KIND_CONST, stage=0) -> None:
        """Inequality entries; ``kind`` says how ``base`` scales with the
        demand of stage-table row ``stage``.  Scalars broadcast."""
        self._add(self._ub, rows, cols, base, 4 * np.asarray(stage) + kind)

    def eq(self, rows, cols, data) -> None:
        """Equality entries (all demand-independent)."""
        self._add(self._eq, rows, cols, data, 0)

    @staticmethod
    def _add(store, rows, cols, base, term) -> None:
        for part, value, dtype in zip(store, (rows, cols, base, term), _ENTRY_DTYPES):
            part.append(np.broadcast_to(np.asarray(value, dtype), np.shape(rows)))

    def _block(self, group: str, rows: np.ndarray, eq: bool) -> None:
        """The fresh chains' entries of block ``group``, its local row
        ``r`` on row ``rows[r]``."""
        self.groups[group] = (eq, rows)
        local, cols, base, kind = self.flow.fresh[group]
        term = 4 * self.flow.var_stage[cols] + kind
        self._add(self._eq if eq else self._ub, rows[local], cols, base, term)

    def coverage(self, row_of: np.ndarray, eq: bool = True) -> None:
        """Demand coverage: chain ``c``'s stage-1 flows on ``row_of[c]``."""
        self._block("cover", row_of, eq)

    def conservation(self, row_of: np.ndarray) -> None:
        """Equation 5; ``row_of[r]`` is where conservation row ``r`` goes."""
        self._block("cons", row_of, True)

    def load_rows(self, group: str, bounds) -> int:
        """One row per resource the chains load, load <= ``bounds``: per
        (VNF, site) (``group`` ``"pair"``) or per site (``"site"``) --
        Equation 4 --, or per link chain traffic can cross (``"link"``,
        Equations 6-7)."""
        first = self.open_ub(bounds)
        self._block(group, first + np.arange(len(bounds)), False)
        return first

    def freeze(self) -> None:
        """Lay ``[A_ub; A_eq]`` out in CSC slot order: the triplets sorted
        by (column, row), and the column runs the flow splices from a
        predecessor copied in, their rows moved to where those sit here
        and their terms by their stage rows' offset.  Within a column
        each row move is monotone, so a copied column stays sorted."""
        n_ub = len(self.b_ub)
        self.n_rows = n_rows = n_ub + len(self.b_eq)
        self.groups = {g: rows + n_ub * eq for g, (eq, rows) in self.groups.items()}
        rows, cols, base, term = (
            _concat(ub + eq, dtype) for ub, eq, dtype in zip(self._ub, self._eq, _ENTRY_DTYPES)
        )
        rows[sum(map(len, self._ub[0])):] += n_ub
        del self._ub, self._eq
        flow, splice = self.flow, self.flow.splice
        del flow.fresh, flow.splice

        # The triplets: an element's entries adjacent, in entry order.
        key = cols * n_rows + rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        opens = np.ones(len(key), dtype=bool)
        opens[1:] = key[1:] != key[:-1]
        if (~opens[1:] & ~opens[:-1]).any():
            raise ReproError("internal: an element holds three entries")
        first, col = order[opens], key[opens] // n_rows
        mine = np.bincount(col, minlength=self.n_total)
        counts = mine.copy()
        if splice is not None:
            prior, moves, local = splice
            for c0, c1, h0, _shift in moves:
                counts[h0 : h0 + c1 - c0] = np.diff(prior.indptr[c0 : c1 + 1])
        n_terms = 4 * flow.chains.n_stage_rows + 4
        # scipy's index rule: int32 while every index and count fits.
        maxval = max(counts.sum(), n_rows, self.n_total, n_terms)
        idx_dtype = np.int32 if maxval <= np.iinfo(np.int32).max else np.int64
        self.indptr = np.zeros(self.n_total + 1, dtype=idx_dtype)
        np.cumsum(counts, out=self.indptr[1:])
        nnz = int(self.indptr[-1])
        self.indices = np.empty(nnz, dtype=idx_dtype)
        # An element is ``base1 * scale1 + base2 * scale2``.  One with a
        # single entry has ``base2 = -0.0``, which would leave any sum as
        # it is: ``refresh`` adds the second terms of the others only.
        self._base = (np.empty(nnz), np.full(nnz, -0.0))
        self._term = (np.empty(nnz, dtype=idx_dtype), np.zeros(nnz, dtype=idx_dtype))
        at = (self.indptr[:-1] - np.cumsum(mine) + mine)[col] + np.arange(len(first))
        self.indices[at] = key[opens] - col * n_rows
        self._base[0][at], self._term[0][at] = base[first], term[first]
        second = at[(np.cumsum(opens) - 1)[~opens]]
        self._base[1][second], self._term[1][second] = base[order[~opens]], term[order[~opens]]

        if splice is not None:
            row_of = np.zeros(prior.n_rows, dtype=idx_dtype)
            for group, rows_there in prior.groups.items():
                if len(self.groups[group]):
                    row_of[rows_there] = self.groups[group][local[group]]
            for c0, c1, h0, shift in moves:
                s0, s1 = prior.indptr[[c0, c1]]
                here = slice(self.indptr[h0], self.indptr[h0] + s1 - s0)
                self.indices[here] = row_of[prior.indices[s0:s1]]
                for k in range(2):
                    self._base[k][here] = prior._base[k][s0:s1]
                    self._term[k][here] = prior._term[k][s0:s1] + 4 * shift

        # The slots with a second entry.
        self._two = np.flatnonzero(~(np.signbit(self._base[1]) & (self._base[1] == 0.0)))

        # Column generation holds routes, and a route crosses a row of
        # Equation 5 with +1 and -1: its master keeps the other rows,
        # whose share of the pattern is fixed here as well.  The solver,
        # warm-startable, stays with this structure across solves.
        kept = np.ones(n_rows, dtype=bool)
        kept[self.groups["cons"]] = False
        entries = kept[self.indices]
        self.cg_solver = highs_backend.ColumnGenSolver(
            flow, np.flatnonzero(kept), entries,
            (np.cumsum(kept) - 1).astype(idx_dtype)[self.indices[entries]],
            np.concatenate([[0], np.cumsum(entries)]).astype(idx_dtype)[self.indptr],
        )

    def slots(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The slot of element (``rows[i]``, ``cols[i]``) of the pattern."""
        col_of = np.repeat(np.arange(self.n_total), np.diff(self.indptr))
        return np.searchsorted(col_of * self.n_rows + self.indices, cols * self.n_rows + rows)

    def refresh(self, stage_total, stage_fwd, stage_rev) -> np.ndarray:
        """The CSC data of ``[A_ub; A_eq]`` under the given per-stage
        demands, slot by slot: every first entry, then the few second ones
        added on.

        The array equals, bit for bit, what scipy's COO -> CSC conversion
        of the scaled entries gives: an element holds at most two entries
        here (one for each end of a flow) and a two-term sum does not
        depend on its order.
        """
        scale = np.column_stack([np.ones(len(stage_total)), stage_total, stage_fwd, stage_rev])
        scale = scale.ravel()
        data = self._base[0] * scale[self._term[0]]
        two = self._two
        data[two] += self._base[1][two] * scale[self._term[1][two]]
        return data


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
    A miss builds the program from its predecessor -- the cached program
    of the same kind it shares the most chains with --, whose columns of
    the shared chains it splices (:class:`ChainFlow`), and starts its
    solver from the routes that predecessor ended on (:meth:`_carry_pool`).
    All of that is state of the entries, so :meth:`clear` returns the
    cache to what it was at import time.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: "OrderedDict[tuple, Program]" = OrderedDict()
        self.hits = 0
        self.rebuilds = 0

    def get(self, key: tuple, model: NetworkModel, build) -> tuple[Program, bool]:
        """``(program, was_cached)`` for ``model``; on a miss
        ``build(predecessor)`` runs (``None``: no cached program of this
        kind)."""
        program = self._entries.get(key)
        if program is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return program, True
        # The kind includes the catalogues' order, so among kin a block's
        # length follows from the chain's endpoints and VNFs.
        shapes = {name: (c.ingress, c.egress, tuple(c.vnfs)) for name, c in model.chains.items()}
        kin = [o for k, o in reversed(self._entries.items()) if k[1:] == key[1:]]
        prior = max(kin, default=None, key=lambda other: sum(
            shapes.get(name) == shape[:3] for name, (_, shape) in other.flow.chain_blocks.items()
        ))
        program = build(prior)
        self._carry_pool(program, prior)
        self._entries[key] = program
        self.rebuilds += 1
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
        return program, False

    @staticmethod
    def _carry_pool(program: Program, best: Program | None) -> None:
        """Start a new program's column generation where its predecessor's
        ended.

        Chain churn changes the structure but leaves most chains, hence
        most column blocks, as they were.  The predecessor is the solved
        program of the same kind sharing the most chains (same name, same
        block shape; the most recently used on a tie); what crosses is
        its *support* -- the routes its last optimum left basic or
        non-zero -- of the shared chains, shifted by the block offset.
        """
        support = best.cg_solver.support() if best is not None else None
        if support is None:
            return
        blocks = program.flow.chain_blocks
        # A route lies in one block, and the pads in front absorb a depth
        # difference: a shared chain is no deeper than either program.
        last, depth = support[:, -1], program.flow.depth
        width = min(depth, support.shape[1])
        routes = np.full((len(support), depth), -1)
        routes[:, -width:] = support[:, -width:]
        keep = np.zeros(len(support), dtype=bool)
        for name, (start, shape) in best.flow.chain_blocks.items():
            if name not in blocks or blocks[name][1] != shape:
                continue
            block = (last >= start) & (last < start + shape[-1])
            routes[block] += (blocks[name][0] - start) * (routes[block] >= 0)
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
    data: np.ndarray,
    b_ub: np.ndarray,
    col_upper: np.ndarray,
) -> tuple:
    """Solve a program under refreshed data -- the CSC values of
    ``[ub; eq]`` on its pattern -- through its warm
    :class:`~repro.core.highs.ColumnGenSolver`.  Returns ``(x, objective,
    solver seconds)``; ``x`` and ``objective`` are ``None`` when the
    program is infeasible."""
    row_lower = np.concatenate([np.full(len(b_ub), -np.inf), program.b_eq])
    row_upper = np.concatenate([b_ub, program.b_eq])
    start = time.perf_counter()
    x, objective = program.cg_solver.solve(
        cost, data, program.n_total, row_lower, row_upper,
        np.zeros(program.n_total), col_upper,
    )
    return x, objective, time.perf_counter() - start
