"""The reduced subgraph ``G'`` of Section II-B.

For a transaction of size ``x``, only directed edges whose balance is at
least ``x`` can forward it. All routing and rate estimation for size-``x``
transactions therefore operates on the *reduced subgraph*: the directed
view of the channel graph with under-capacitated edges removed.

``G'`` is the immutable CSR snapshot :func:`reduced_view`; call
``reduced_view(graph, amount).to_networkx()`` for a networkx copy.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

import numpy as np

from .graph import ChannelGraph
from .views import GraphView, bfs_distances

__all__ = [
    "reduced_view",
    "feasible_pairs",
    "infeasible_edges",
]


def reduced_view(graph: ChannelGraph, amount: float) -> GraphView:
    """CSR snapshot keeping only directed entries able to forward ``amount``.

    Identical to ``graph.view(directed=True, reduced=amount)``; named entry
    point so call sites read like the paper.
    """
    return graph.view(directed=True, reduced=amount)


def infeasible_edges(
    graph: ChannelGraph, amount: float
) -> List[Tuple[Hashable, Hashable, float]]:
    """Directed edges (aggregated per direction) that cannot carry ``amount``.

    Returns triples ``(src, dst, balance)`` sorted for deterministic output.
    """
    full = graph.view(directed=True)
    rows = full.entry_rows()
    thin = np.nonzero(full.balances < amount)[0]
    out = [
        (full.nodes[rows[pos]], full.nodes[full.indices[pos]],
         float(full.balances[pos]))
        for pos in thin
    ]
    return sorted(out, key=lambda t: (str(t[0]), str(t[1])))


def feasible_pairs(graph: ChannelGraph, amount: float) -> int:
    """Number of ordered node pairs that can route ``amount``.

    A coarse liquidity metric: counts ``(s, r)`` with ``s != r`` such that a
    directed path of edges with balance >= ``amount`` exists from ``s`` to
    ``r`` in the reduced subgraph. One vectorised BFS per source.
    """
    reduced = reduced_view(graph, amount)
    count = 0
    for source in range(reduced.num_nodes):
        dist = bfs_distances(reduced, source)
        count += int(np.count_nonzero(dist > 0))
    return count
