"""Degree ranking and the tie-averaged rank factors of Section II-B.

The modified Zipf distribution ranks, from the perspective of a user ``u``,
every *other* node by in-degree (computed on the graph with ``u`` and its
incident channels removed) and assigns each node ``v`` a *rank factor*

    rf(v) = ( 1/r0^s + 1/(r0+1)^s + ... + 1/(r0+n(v)-1)^s ) / n(v)

where ``r0 = r0(v)`` is the first (best) rank of ``v``'s in-degree class and
``n(v)`` is the size of that class. Averaging over the tie block makes the
probability of transacting with two equal-degree nodes equal, which is the
paper's stated motivation for modifying plain Zipf.

The paper's formula writes the last term as ``1/(r0(v)+n(v))^s``; summing
``n(v)`` consecutive ranks starting at ``r0`` ends at ``r0+n(v)-1``, and we
use that reading (the off-by-one in the text would double-count one rank
between adjacent tie blocks and break normalisation).
"""

from __future__ import annotations

import collections
import functools
import operator
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = ["degree_ranking", "rank_factors", "rank_factors_from_degrees"]


def degree_ranking(
    graph: ChannelGraph, perspective: Optional[Hashable] = None
) -> List[Tuple[Hashable, int]]:
    """Nodes (excluding ``perspective``) with in-degrees, highest first.

    When ``perspective`` is given, its incident channels are ignored when
    counting degrees, matching the subgraph ``G' = G - u`` of Section II-B.
    Ties are broken deterministically by node representation so results are
    stable across runs; the rank *factors* are tie-invariant anyway.
    """
    if perspective is not None and perspective not in graph:
        raise NodeNotFound(perspective)
    nodes = graph.nodes
    degrees: Dict[Hashable, int] = dict(zip(nodes, map(graph.degree, nodes)))
    if perspective is not None:
        # G - u: drop u, and each of u's channels (parallel ones too) costs
        # its other endpoint one degree.
        del degrees[perspective]
        for channel in graph.channels_of(perspective):
            degrees[channel.other(perspective)] -= 1
    # highest degree first, ties by str(node): a stable sort by degree
    # (reverse keeps stability) over the nodes sorted by str
    order = sorted(sorted(degrees, key=str), key=degrees.__getitem__, reverse=True)
    return [(node, degrees[node]) for node in order]


@functools.lru_cache(maxsize=8192, typed=True)
def _tie_block_average(first_rank: int, block_size: int, s: float) -> float:
    """Mean of ``1/r^s`` over ranks ``first_rank .. first_rank+block_size-1``.

    Memoised: every sender's row of a graph repeats nearly the same tie
    blocks, and a block of low-degree nodes can span most of the ranks.
    """
    block = [
        1.0 / float(rank) ** s for rank in range(first_rank, first_rank + block_size)
    ]
    return sum(block) / len(block)


def rank_factors_from_degrees(
    degrees: Sequence[int], s: float
) -> List[float]:
    """Rank factors for a degree sequence sorted in non-increasing order.

    Args:
        degrees: in-degrees sorted highest first (rank 1 first).
        s: Zipf scale parameter (>= 0).

    Returns:
        rank factor per position, same order as ``degrees``.
    """
    if s < 0:
        raise InvalidParameter(f"Zipf parameter s must be >= 0, got {s}")
    if any(map(operator.lt, degrees, degrees[1:])):
        raise InvalidParameter("degrees must be sorted in non-increasing order")
    factors: List[float] = []
    # sorted, so each degree's count is the size of its tie block
    for size in collections.Counter(degrees).values():
        factors.extend([_tie_block_average(len(factors) + 1, size, s)] * size)
    return factors


def rank_factors(
    graph: ChannelGraph,
    perspective: Optional[Hashable] = None,
    s: float = 1.0,
) -> Dict[Hashable, float]:
    """Rank factor ``rf(v)`` of every node from ``perspective``'s view.

    The returned factors are *unnormalised*; divide by their sum to obtain
    transaction probabilities (see :class:`~repro.transactions.zipf.ModifiedZipf`).
    """
    ranked = degree_ranking(graph, perspective)
    factors = rank_factors_from_degrees([d for _, d in ranked], s)
    return {node: factor for (node, _), factor in zip(ranked, factors)}
