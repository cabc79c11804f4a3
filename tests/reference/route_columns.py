"""The route master's columns as a scipy sparse product: the oracle of
``repro.core.highs``' summation plan (``_plan`` / ``_columns``), which
must give the same ``indptr`` / ``indices`` / ``data`` bit for bit."""

import numpy as np
from scipy.sparse import csc_matrix


def route_columns(matrix: csc_matrix, routes: np.ndarray) -> csc_matrix:
    """One column per row of ``routes``: the sum of the columns of
    ``matrix`` the row names (``-1`` pads), entries of one row summed."""
    real = routes >= 0
    pick = csc_matrix(
        (np.ones(int(real.sum())), routes[real],
         np.concatenate([[0], np.cumsum(real.sum(axis=1))])),
        shape=(matrix.shape[1], len(routes)),
    )
    return matrix @ pick
