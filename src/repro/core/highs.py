"""Warm-startable LP solves through the HiGHS library bundled with scipy.

``scipy.optimize.linprog`` rebuilds and presolves the whole program on
every call, which wastes most of the solve time when the same structure
is re-solved under new demands -- exactly what ``reoptimize()`` rounds,
the solver farm's incremental ``resolve``, and the capacity-planning
budget sweeps do.  This module talks to the HiGHS instance scipy ships
(``scipy.optimize._highspy``) directly, which exposes what ``linprog``
hides:

- keeping a solver instance alive across solves,
- warm-starting dual simplex from the previous optimal basis, and
- column generation: solving a restricted master over a subset of
  columns and pricing the rest in from one vectorized reduced-cost pass
  (``c - A.T @ y``) per round -- by *route*, not by arc (the dual of a
  conservation row no active column touches is arbitrary; along a route
  those duals cancel): the missing arcs of every chain's cheapest route
  of negative summed reduced cost, until no chain has any.

Column generation is only used for programs that are feasible with all
flow variables at zero (``MAX_THROUGHPUT`` chain routing and the
capacity-planning alpha maximization); equality-covered objectives go
through ``linprog`` unchanged.

Arrays cross the boundary as arrays: ``passModel`` and ``addCols`` are
called through their array overloads (assigning numpy arrays to
``HighsLp`` fields converts them element by element), the saved
``HighsBasis`` is read or written only after a solve that priced
columns in, and every ``HighsStatus`` is checked -- a call HiGHS
rejects leaves its previous model in place, which ``run()`` would then
report optimal.  DESIGN.md section 9 has the call table, why the
pricing rule is exact and what was measured.

This is the one backend: a scipy without the private module fails here,
at import.  ``linprog`` serves the equality-covered objectives and is
where a :class:`ColumnGenError` lands.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize._highspy import _core as _hc
from scipy.sparse import csc_matrix


class ColumnGenError(Exception):
    """Raised when the direct backend cannot finish; callers fall back."""


def _new_highs():
    h = _hc._Highs()
    h.setOptionValue("output_flag", False)
    # Presolve rarely pays off on the small restricted masters and
    # discards the warm basis; dual simplex from the previous basis is
    # the whole point here.
    h.setOptionValue("presolve", "off")
    return h


class ColumnGenSolver:
    """Restricted-master column generation with cross-solve warm starts.

    One instance corresponds to one constraint-matrix *structure* and is
    made with its ``flow`` (a :class:`~repro.core.formulation.ChainFlow`:
    the first ``n_flow`` columns are chain flows, priced by
    ``cheapest_paths``; any further column is priced on its own).  The
    caller caches instances keyed on the model's structure digest and
    calls :meth:`solve` with refreshed numeric data each round.  The
    active column set and the optimal basis survive between calls, so a
    re-solve after a demand change usually costs one dual-simplex run
    plus one or two pricing rounds.  The master is always passed with
    its columns sorted (column order decides which of several optimal
    vertices simplex ends on), so the basis is reordered -- through
    Python lists, 0.3 ms at 850 columns -- only after a solve that
    priced columns in behind the sorted ones.

    A *new* structure can start from another one's outcome:
    :meth:`support` names the columns a solve ended on and :meth:`seed`
    makes a column set the first restricted master of the next solve.
    """

    #: Reduced costs below this are considered improving.
    PRICING_TOL = 1e-9
    #: Safety cap (then ``linprog``, counted): cold solves of the 25-PoP
    #: shape take 17-27 rounds at 16 to 128 chains, warm ones 1-10.
    MAX_ROUNDS = 120

    def __init__(self, flow) -> None:
        self._flow = flow
        self._highs = _new_highs()
        # Columns of the last restricted master (sorted), its optimal
        # basis and their primal values.
        self._active: np.ndarray | None = None
        self._basis = None
        self._values: np.ndarray | None = None
        self.last_rounds = 0

    def seed(self, columns: np.ndarray) -> None:
        """Make ``columns`` the first restricted master of the next solve
        (instead of the ``seed_columns`` handed to :meth:`solve`)."""
        self._active = np.unique(np.asarray(columns, dtype=np.int64))
        self._basis = self._values = None

    def support(self) -> np.ndarray | None:
        """Columns the last solve ended on -- basic, or non-basic away
        from zero -- in order; ``None`` before the first successful solve."""
        if self._basis is None:
            return None
        status = np.array(self._basis.col_status, dtype=np.int8)
        basic = status == int(_hc.HighsBasisStatus.kBasic)
        return self._active[basic | (self._values != 0.0)]

    def solve(
        self,
        cost: np.ndarray,
        matrix: csc_matrix,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        seed_columns: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Solve ``min c@x  s.t.  rl <= A x <= ru, cl <= x <= cu``.

        The program must be feasible with every column absent (all-zero
        flow), which makes any restricted master feasible.  Returns the
        full-length primal solution and the objective value.
        """
        n_cols = matrix.shape[1]
        matrix_t = matrix.T.tocsr()
        active = self._initial_active(cost, n_cols, seed_columns)

        highs = self._highs
        self._pass_restricted(
            cost, matrix, row_lower, row_upper, col_lower, col_upper, active
        )
        if self._basis is not None:
            self._checked(highs.setBasis(self._basis), "setBasis")
        # Dual simplex for the (possibly warm-started) restricted master...
        highs.setOptionValue("simplex_strategy", 1)
        self._run()
        # ...but primal for the pricing re-solves: after addCols the old
        # basis stays primal-feasible (new columns enter nonbasic at 0)
        # while dual feasibility is exactly what pricing violated, so
        # primal iterates only on the entering columns instead of
        # re-solving from scratch.  Measured ~9x on the 128-chain bench.
        highs.setOptionValue("simplex_strategy", 4)

        active_mask = np.zeros(n_cols, dtype=bool)
        active_mask[active] = True
        self.last_rounds = 0
        for _ in range(self.MAX_ROUNDS):
            self.last_rounds += 1
            solution = highs.getSolution()
            duals = np.asarray(solution.row_dual)
            reduced = cost - matrix_t @ duals
            take = self._improving(reduced)
            take = take[~active_mask[take]]
            if take.size == 0:
                break
            sub = matrix[:, take]
            self._checked(highs.addCols(
                int(take.size), cost[take], col_lower[take], col_upper[take],
                int(sub.nnz), sub.indptr[:-1], sub.indices, sub.data,
            ), "addCols")
            active = np.concatenate([active, take])
            active_mask[take] = True
            self._run()
        else:
            raise ColumnGenError("column generation did not converge")

        values = np.asarray(solution.col_value)
        x = np.zeros(n_cols)
        x[active] = values
        objective = float(cost[active] @ values)
        self._basis = highs.getBasis()
        if self.last_rounds > 1:
            # HiGHS holds the priced-in columns behind the first master.
            order = np.argsort(active, kind="stable")
            status = self._basis.col_status
            self._basis.col_status = [status[i] for i in order.tolist()]
            active, values = active[order], values[order]
        self._active, self._values = active, values
        return x, objective

    # -- internals ------------------------------------------------------

    def _improving(self, reduced: np.ndarray) -> np.ndarray:
        """The arcs of every chain's cheapest route, where it prices
        negative, then the negative columns that are not flows; in column
        order.  A negative route already in the master whole has an arc
        at its upper bound 1 -- a chain routed whole -- and no dearer
        route of that chain improves either: the caller stops."""
        n_flow = self._flow.n_flow
        costs, arcs = self._flow.cheapest_paths(reduced)
        arcs = arcs[costs < -self.PRICING_TOL]
        own = np.flatnonzero(reduced[n_flow:] < -self.PRICING_TOL)
        return np.concatenate([arcs[arcs >= 0], own + n_flow])

    def _initial_active(
        self, cost: np.ndarray, n_cols: int, seed_columns: np.ndarray | None
    ) -> np.ndarray:
        if self._active is not None and self._active.size and (
            self._active < n_cols
        ).all():
            return self._active
        self._basis = None  # belongs to the column set being dropped
        if seed_columns is not None:
            active = np.unique(np.asarray(seed_columns, dtype=np.int64))
        else:
            active = np.flatnonzero(cost != 0.0)
        if active.size == 0:
            active = np.arange(min(n_cols, 1), dtype=np.int64)
        return active

    def _pass_restricted(
        self,
        cost: np.ndarray,
        matrix: csc_matrix,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        active: np.ndarray,
    ) -> None:
        sub = matrix[:, active]
        status = self._highs.passModel(
            len(active), matrix.shape[0], sub.nnz,
            int(_hc.MatrixFormat.kColwise), int(_hc.ObjSense.kMinimize), 0.0,
            cost[active], col_lower[active], col_upper[active],
            row_lower, row_upper,
            sub.indptr, sub.indices, sub.data,
            # All continuous, but full length: HiGHS rejects an empty one.
            np.zeros(len(active), dtype=np.int32),
        )
        self._checked(status, "passModel")

    def _run(self) -> None:
        self._checked(self._highs.run(), "run")
        status = self._highs.getModelStatus()
        if status != _hc.HighsModelStatus.kOptimal:
            # Any restricted master of a zero-feasible program is
            # feasible; anything else is a numerical failure.
            self._active = self._basis = None
            raise ColumnGenError(f"HiGHS status {status}")

    def _checked(self, status, call: str) -> None:
        """A call HiGHS rejects leaves its previous model or basis in
        place, and a later ``run()`` would report that stale program
        optimal: stop here instead."""
        if status == _hc.HighsStatus.kError:
            self._active = self._basis = None
            raise ColumnGenError(f"HiGHS rejected {call}")


__all__ = [
    "ColumnGenError",
    "ColumnGenSolver",
]
