"""Warm-startable LP solves through the HiGHS library bundled with scipy.

Every Section 4.3 linear program -- chain routing under all three
objectives and the capacity-planning alpha maximization -- is solved
here, on the HiGHS instance scipy ships (``scipy.optimize._highspy``),
talked to directly for what ``scipy.optimize.linprog`` hides:

- keeping a solver instance alive across solves,
- warm-starting dual simplex from the previous optimal basis, and
- column generation over *routes* (the path-flow master): a column is
  one chain's ingress-to-egress route, the sum of its arcs' columns, so
  the conservation rows cancel out of the master altogether; each round
  prices every arc in one pass (``c - A.T @ y`` over the kept rows) and
  adds every chain's cheapest routes of negative summed reduced cost,
  until no chain has any.  A route's column is summed by a plan fixed
  when the route is admitted (:func:`_plan`), bit for bit scipy's
  sparse product with a 0/1 selection matrix.

A program whose rows exclude zero activity (the demand-covered
objectives) starts with a phase I on the same instance: one artificial
column per such row, priced against zero route costs, then fixed at zero
for phase II.  A :class:`ColumnGenError` is an error.  This is the one
backend, and it needs two compiled modules of scipy: HiGHS
(``scipy.optimize._highspy._core``) and ``csr_matvec``
(``scipy.sparse._sparsetools``).  :func:`_extension` loads each from its
file, so the ``scipy.optimize`` and ``scipy.sparse`` packages around them
(~45 MB resident) are not imported; a scipy without either file fails
here, at import.

Arrays cross the boundary as arrays: ``passModel`` and ``addCols`` are
called through their array overloads (assigning numpy arrays to
``HighsLp`` fields converts them element by element), the saved
``HighsBasis`` is handed back as it came, and every ``HighsStatus`` is
checked -- a call HiGHS rejects leaves its previous model in place,
which ``run()`` would then report optimal.  DESIGN.md section 9 has the
call table, why the route master is exact and what was measured.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.core.errors import ReproError


def _extension(name: str):
    """scipy's compiled module ``name``, executed from its file alone: no
    package ``__init__`` runs.  It is registered under ``name``, so a later
    ``import scipy.optimize`` reuses this module object."""
    if name in sys.modules:
        return sys.modules[name]
    root = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    stem = str(root.joinpath(*name.split(".")[1:]))
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for path in (stem + suffix for suffix in suffixes):
        if Path(path).is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy has no file {stem}{{{','.join(suffixes)}}} ({name})")


_hc = _extension("scipy.optimize._highspy._core")
_sparsetools = _extension("scipy.sparse._sparsetools")


class ColumnGenError(ReproError):
    """Raised when HiGHS rejects a call or fails on a master, or column
    generation does not converge; the solver has forgotten its state."""


def _new_highs():
    h = _hc._Highs()
    h.setOptionValue("output_flag", False)
    # Presolve rarely pays off on the small restricted masters and
    # discards the warm basis; dual simplex from the previous basis is
    # the whole point here.
    h.setOptionValue("presolve", "off")
    return h


def _plan(indices: np.ndarray, indptr: np.ndarray, n_rows: int, routes: np.ndarray) -> tuple:
    """How the columns of ``routes`` (``-1`` pads) are summed from the
    entries of the CSC pattern ``indices`` / ``indptr``: entries per route,
    each entry's row, terms per entry, each term's pattern position -- in
    the order scipy's product with a 0/1 selection matrix (SMMP) forms
    them: a route's rows in reverse order of first touch, a row's terms
    in touch order, so :func:`_columns` adds the same numbers in turn."""
    route_of, depth = np.nonzero(routes >= 0)
    arcs = routes[route_of, depth]
    lengths = indptr[arcs + 1] - indptr[arcs]
    # Every pattern position the routes' arcs touch, in touch order.
    at = np.arange(lengths.sum()) + np.repeat(indptr[arcs] - np.cumsum(lengths) + lengths, lengths)
    key = np.repeat(route_of, lengths) * n_rows + indices[at]
    perm = np.argsort(key, kind="stable")  # by (route, row), then in touch order
    opens = np.flatnonzero(np.diff(key[perm], prepend=-1))
    owner, first = key[perm[opens]] // n_rows, perm[opens]  # per entry: route, first touch
    order = np.argsort(owner * len(key) - first)  # by route, last first touch first
    terms = np.diff(opens, append=len(key))[order]
    return (
        np.bincount(owner, minlength=len(routes)),
        (key[first] % n_rows)[order].astype(indices.dtype),
        terms,
        at[perm[np.arange(len(key)) + np.repeat(opens[order] - np.cumsum(terms) + terms, terms)]],
    )


def _columns(plan: tuple, values: np.ndarray) -> tuple:
    """``(indptr, indices, data)`` of the plan's columns over the pattern's
    ``values``: one ``csr_matvec``, less the sums of zero, as the product."""
    per_route, rows, per_entry, terms = plan
    data = np.zeros(len(rows))
    _sparsetools.csr_matvec(
        len(rows), len(values), np.append(0, np.cumsum(per_entry)), terms,
        np.ones(len(terms)), values, data,
    )
    nonzero = data != 0.0
    held = np.append(0, np.cumsum(nonzero))[np.append(0, np.cumsum(per_route))]
    return held.astype(rows.dtype), rows[nonzero], data[nonzero]


def _route_cost(cost: np.ndarray, routes: np.ndarray) -> np.ndarray:
    """The summed cost of each route (a ``-1`` pad costs nothing)."""
    return np.append(cost, 0.0)[routes].sum(axis=1)


class ColumnGenSolver:
    """Column generation over routes, with cross-solve warm starts.

    One instance corresponds to one constraint-matrix *structure* and is
    made with its ``flow`` (a :class:`~repro.core.formulation.ChainFlow`:
    the first ``n_flow`` columns are chain flows) and the rows a route
    does not cancel on -- all but Equation 5's -- as ``rows``, with the
    program's CSC pattern on them: which ``entries`` of it (a mask), their
    row ``indices`` and the ``indptr``.  A master column is a row of
    :attr:`routes`: one chain's ingress-to-egress route, the sum of its
    arcs' columns, or a column past ``n_flow`` on its own; a program with
    rows that exclude zero activity has its artificial columns in front
    of them, in the master only.  The caller
    caches instances by structure digest and calls :meth:`solve` with new
    numbers each round; routes with their plans and the optimal basis
    stay, so a re-solve after a demand change is one dual-simplex run and
    a pricing round or two.  Routes are only appended (the basis needs no
    reordering), never dropped: the pool is unbounded (299 -> 1 285 over
    400 re-solves).
    """

    #: Reduced costs below this are considered improving.
    PRICING_TOL = 1e-9
    #: Artificial mass a phase-I optimum may keep and the program still be
    #: feasible: HiGHS's primal feasibility tolerance, so no row the
    #: phase-II fix leaves short is short by more than HiGHS allows.
    FEASIBILITY_TOL = 1e-7
    #: Safety cap over both phases (then ``ColumnGenError``): cold solves
    #: take 3-19 rounds at 12 to 128 chains, warm and carried ones 1-11.
    MAX_ROUNDS = 120

    def __init__(self, flow, rows, entries, indices, indptr) -> None:
        self._flow = flow
        self.rows = rows
        self._entries = entries
        self._pattern = (indices, indptr)
        self._highs = _new_highs()
        #: The master's columns, ``(n, depth)`` program columns each.
        self.routes: np.ndarray | None = None
        #: How each of them is summed from the kept entries (:func:`_plan`).
        self._plan: tuple | None = None
        self._known: set[bytes] = set()
        #: Routes a first solve starts from, next to every chain's cheapest.
        self.seed = np.zeros((0, flow.depth), dtype=np.int64)
        self._basis = None
        #: Per kept row, the sign of its artificial column (0: none) when
        #: the basis was saved; the artificial columns come first.
        self._signs = np.zeros(0)
        self.last_rounds = 0

    def support(self) -> np.ndarray | None:
        """The chain routes the last solve ended on -- basic, or non-basic
        away from zero --; ``None`` before the first successful solve."""
        if self._basis is None:
            return None
        k = np.count_nonzero(self._signs)
        status = np.array(self._basis.col_status, dtype=np.int8)[k:]
        values = np.asarray(self._highs.getSolution().col_value)[k:]
        on = (status == int(_hc.HighsBasisStatus.kBasic)) | (values != 0.0)
        return self.routes[on & (self.routes[:, -1] < self._flow.n_flow)]

    def solve(
        self,
        cost: np.ndarray,
        values: np.ndarray,
        n_cols: int,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
    ) -> tuple[np.ndarray | None, float | None]:
        """Solve ``min c@x  s.t.  rl <= A x <= ru, cl <= x <= cu``, ``A``
        the ``n_cols``-column CSC matrix of ``values`` on the program's
        pattern.

        The program's rows must imply the upper bounds of its flow
        columns: those are dropped (the routing program's ``x <= 1``
        follows from its coverage rows, the cloud program has none).  A
        kept row whose bounds exclude zero activity gets an artificial
        column, +1 or -1, and the master first minimises their sum (phase
        I) with routes at zero cost; then the artificial columns are fixed
        at zero, the real costs go in and primal simplex goes on from that
        basis (phase II).  Returns the full-length primal solution and the
        objective value, or ``(None, None)`` when phase I ends above
        :attr:`FEASIBILITY_TOL`: the program is infeasible.
        """
        flow, highs = self._flow, self._highs
        kept = values[self._entries]  # the kept rows' CSC values
        lower, upper = row_lower[self.rows], row_upper[self.rows]
        signs = (lower > 0).astype(float) - (upper < 0)
        artificial = np.flatnonzero(signs)
        k = len(artificial)
        if self.routes is None:
            # Every chain's cheapest route at zero duals, the columns that
            # are not flows, and what a predecessor handed on -- none
            # through a blocked flow (a chain may have no route at all).
            self.routes, self._known = self.seed[:0], set()
            single = np.full((n_cols - flow.n_flow, flow.depth), -1, dtype=np.int64)
            single[:, -1] = np.arange(flow.n_flow, n_cols)
            costs, cheapest = flow.cheapest_paths(cost)
            seed = self.seed[~np.isin(self.seed, flow.blocked).any(axis=1)]
            self._admit(np.concatenate([
                cheapest[np.isfinite(costs[:, 0]), 0], single, seed
            ]))
        if not k and not len(self.routes):
            return np.zeros(n_cols), 0.0  # no route at all: nothing carries
        if not np.array_equal(signs, self._signs):
            self._basis = None  # another set of artificial columns
        self._signs = signs
        last = self.routes[:, -1]  # never a pad
        own = last >= flow.n_flow
        indptr, indices, data = _columns(self._plan, kept)
        self._checked(highs.passModel(
            k + len(self.routes), len(self.rows), k + len(data),
            int(_hc.MatrixFormat.kColwise), int(_hc.ObjSense.kMinimize), 0.0,
            np.repeat([1.0, 0.0], [k, len(self.routes)]) if k
            else _route_cost(cost, self.routes),
            np.append(np.zeros(k), np.where(own, col_lower[last], 0.0)),
            np.append(np.full(k, np.inf), np.where(own, col_upper[last], np.inf)),
            lower, upper,
            # The artificial columns first, one entry each.
            np.append(np.arange(k), k + indptr),
            np.append(artificial, indices),
            np.append(signs[artificial], data),
            # All continuous, but full length: HiGHS rejects an empty one.
            np.zeros(k + len(self.routes), dtype=np.int32),
        ), "passModel")
        if self._basis is not None:
            self._checked(highs.setBasis(self._basis), "setBasis")
        # Dual simplex for the (possibly warm-started) restricted master --
        # primal in phase I, where dual simplex can stall on a badly scaled
        # row (a link floored to a 4e-7 share bounding MIN_MLU's beta)...
        highs.setOptionValue("simplex_strategy", 4 if k else 1)
        self._run()
        # ...but primal for the pricing re-solves: after addCols the old
        # basis stays primal-feasible (new columns enter nonbasic at 0)
        # while dual feasibility is exactly what pricing violated, so
        # primal iterates only on the entering columns instead of
        # re-solving from scratch.  Measured ~9x on the 128-chain bench.
        # The same holds across the phase switch: fixing artificial
        # columns at zero and changing costs keeps the basis feasible.
        highs.setOptionValue("simplex_strategy", 4)

        self.last_rounds = 0
        if k:
            self._price(np.zeros(n_cols), kept)
            if np.sum(highs.getSolution().col_value[:k]) > self.FEASIBILITY_TOL:
                self._basis = highs.getBasis()
                return None, None
            every = np.arange(k + len(self.routes), dtype=np.int32)
            self._checked(highs.changeColsBounds(
                k, every[:k], np.zeros(k), np.zeros(k)
            ), "changeColsBounds")
            self._checked(highs.changeColsCost(
                len(every), every,
                np.append(np.zeros(k), _route_cost(cost, self.routes)),
            ), "changeColsCost")
            self._run()
        self._price(cost, kept)

        values = np.asarray(highs.getSolution().col_value)[k:]
        self._basis = highs.getBasis()
        # A flow is the sum of the routes through it (pads fall in bin 0).
        x = np.bincount(
            self.routes.ravel() + 1, np.repeat(values, flow.depth), n_cols + 1
        )[1:]
        return x, float(cost @ x)

    # -- internals ------------------------------------------------------

    def _price(self, cost: np.ndarray, kept: np.ndarray) -> None:
        """Pricing rounds under ``cost`` until no chain has a route of
        negative reduced cost that the master does not hold; ``kept`` is
        the CSC values of the kept rows."""
        indices, indptr = self._pattern
        while self.last_rounds < self.MAX_ROUNDS:
            self.last_rounds += 1
            duals = np.asarray(self._highs.getSolution().row_dual)
            # A_kept^T y: the kept CSC read as the CSR of its transpose.
            priced = np.zeros(len(cost))
            _sparsetools.csr_matvec(len(cost), len(self.rows), indptr, indices, kept, duals, priced)
            costs, arcs = self._flow.cheapest_paths(cost - priced)
            # A negative route the master holds already is negative within
            # HiGHS's dual tolerance only (1e-7, above ``PRICING_TOL``).
            new, plan = self._admit(arcs[costs < -self.PRICING_TOL])
            if not len(new):
                return
            starts, rows, data = _columns(plan, kept)
            self._checked(self._highs.addCols(
                len(new), _route_cost(cost, new),
                np.zeros(len(new)), np.full(len(new), np.inf),
                len(data), starts[:-1], rows, data,
            ), "addCols")
            self._run()
        self._forget()
        raise ColumnGenError("column generation did not converge")

    def _admit(self, routes: np.ndarray) -> tuple[np.ndarray, tuple | None]:
        """Append the routes the master does not hold yet with their plan;
        returns both (``None``, no plan, when none is new)."""
        fresh = []
        for i, route in enumerate(routes):
            key = route.tobytes()
            if key not in self._known:
                self._known.add(key)
                fresh.append(i)
        if not fresh and self._plan is not None:  # a first master may be empty
            return routes[:0], None
        new = routes[fresh]
        plan = _plan(*self._pattern, len(self.rows), new)
        self.routes = np.concatenate([self.routes, new])
        self._plan = tuple(map(np.concatenate, zip(self._plan, plan))) if self._plan else plan
        return new, plan

    def _forget(self) -> None:
        self.routes = self._basis = self._plan = None

    def _run(self) -> None:
        self._checked(self._highs.run(), "run")
        status = self._highs.getModelStatus()
        if status == _hc.HighsModelStatus.kUnknown:
            # Simplex gave up on this basis (a cold phase-I master of the
            # seed-205 MIN_MLU draw does, at round 10): once more from none.
            self._highs.clearSolver()
            self._checked(self._highs.run(), "run")
            status = self._highs.getModelStatus()
        if status != _hc.HighsModelStatus.kOptimal:
            # With its artificial columns every restricted master is
            # feasible; anything else is a numerical failure.
            self._forget()
            raise ColumnGenError(f"HiGHS status {status}")

    def _checked(self, status, call: str) -> None:
        """A call HiGHS rejects leaves its previous model or basis in
        place, and a later ``run()`` would report that stale program
        optimal: stop here instead."""
        if status == _hc.HighsStatus.kError:
            self._forget()
            raise ColumnGenError(f"HiGHS rejected {call}")
