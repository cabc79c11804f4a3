"""Stage transitions built one front pair at a time: the oracle of
``SubstrateColumns.transitions``, which builds every pair a chain set
lacks in one batched pass and must give the same arrays, dtypes and
candidate links."""

import numpy as np

from repro.core.columns import LinkTable, StageTransition, distinct, ragged_gather


def front_nodes(sub, front: int) -> np.ndarray:
    """Network-node indices of the front with id ``front``."""
    if front < sub.n_nodes:
        return np.array([front], dtype=np.int64)
    return sub.site_node[sub.vnf_sites[front - sub.n_nodes]]


def link_table(sub, a_nodes: np.ndarray, b_nodes: np.ndarray, transpose: bool) -> LinkTable:
    """Flat link-gather table for every (a, b) node pair.

    ``targets`` maps each pool entry to its cost-matrix element -- (a, b)
    element order, or (b, a) with ``transpose`` (the reverse-traffic
    direction of a stage).  Entries stay in pool order per pair."""
    if not sub.pool_link.size:  # the model has no routing fractions
        return LinkTable(*[sub.pool_link] * 3)
    pids = sub.pair_id[np.ix_(a_nodes, b_nodes)].ravel()
    valid = np.flatnonzero(pids >= 0)
    p = pids[valid]
    pool_idx, row_of = ragged_gather(sub.pair_start[p], sub.pair_len[p])
    links = sub.pool_link[pool_idx]
    targets = valid[row_of]
    if transpose:
        a_i, b_i = np.divmod(targets, b_nodes.size)
        targets = b_i * a_nodes.size + a_i
    candidates = distinct(len(sub.link_names), links)[0]
    return LinkTable(targets, sub.pool_class[pool_idx], candidates)


def transition(sub, src: int, dst: int) -> StageTransition:
    """Everything the substrate alone says about stage traffic from front
    ``src`` to front ``dst``."""
    src_nodes, dst_nodes = front_nodes(sub, src), front_nodes(sub, dst)
    return StageTransition(
        sub.latency[np.ix_(src_nodes, dst_nodes)],
        link_table(sub, src_nodes, dst_nodes, transpose=False),
        link_table(sub, dst_nodes, src_nodes, transpose=True),
    )
