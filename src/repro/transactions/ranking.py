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

import bisect
import collections
import functools
import operator
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = ["DegreeRanking", "degree_ranking", "rank_factors", "rank_factors_from_degrees"]


def check_zipf_s(s: float) -> None:
    """Reject a negative Zipf scale parameter."""
    if s < 0:
        raise InvalidParameter(f"Zipf parameter s must be >= 0, got {s}")


class DegreeRanking:
    """A graph's nodes ranked by ``(-degree, str(node))``, ties beyond that
    in graph order, built once; :meth:`row` derives each ``G - u`` ranking.

    Degrees are read at construction: build a new ranking after the
    graph's topology changes.
    """

    def __init__(self, graph: ChannelGraph) -> None:
        self.graph = graph
        nodes = graph.nodes
        self.degrees = dict(zip(nodes, map(graph.degree, nodes)))
        # unique keys: a neighbour's key at its G - u degree bisects to its slot
        self._keys = sorted(
            zip(map(operator.neg, self.degrees.values()), map(str, nodes), range(len(nodes)))
        )
        self.order = [nodes[i] for _, _, i in self._keys]
        self._rank = dict(zip(self.order, range(len(nodes))))
        self._counts = dict(collections.Counter(self.degrees.values()))

    def row(
        self, perspective: Optional[Hashable] = None
    ) -> Tuple[List[Hashable], List[int], Dict[Hashable, int]]:
        """``G - perspective``'s nodes in rank order, its tie-block sizes
        (highest degree first) and the new degree of each neighbour of
        ``perspective``, one less per channel; other degrees are unchanged.

        Only ``perspective`` and its neighbours move: no degree is re-read
        and nothing is re-sorted.
        """
        degrees, keys, rank = self.degrees, self._keys, self._rank
        nodes = list(self.order)
        counts = self._counts.copy()
        moved: Dict[Hashable, int] = {}
        if perspective is not None:
            if perspective not in degrees:
                raise NodeNotFound(perspective)
            for channel in self.graph.channels_of(perspective):
                node = channel.other(perspective)
                moved[node] = moved.get(node, degrees[node]) - 1
            counts[degrees[perspective]] -= 1
            drops = [rank[perspective]]
            inserts = []
            for node, degree in moved.items():
                counts[degrees[node]] -= 1
                counts[degree] = counts.get(degree, 0) + 1
                drops.append(rank[node])
                key = (-degree,) + keys[rank[node]][1:]
                inserts.append((bisect.bisect_left(keys, key), key, node))
            drops.sort()
            for position in reversed(drops):
                del nodes[position]
            # a slot counts positions in the full order: shift it past the
            # drops ahead of it and the neighbours already inserted
            for i, (slot, _, node) in enumerate(sorted(inserts)):
                nodes.insert(slot - bisect.bisect_left(drops, slot) + i, node)
        sizes = [counts[degree] for degree in sorted(counts, reverse=True) if counts[degree]]
        return nodes, sizes, moved

    def factors(
        self, perspective: Optional[Hashable], s: float
    ) -> Tuple[List[Hashable], List[float]]:
        """Nodes in rank order from ``perspective``'s view, with their rank factors."""
        nodes, sizes, _ = self.row(perspective)
        check_zipf_s(s)
        return nodes, _block_factors(sizes, s)


def degree_ranking(
    graph: ChannelGraph, perspective: Optional[Hashable] = None
) -> List[Tuple[Hashable, int]]:
    """Nodes (excluding ``perspective``) with in-degrees, highest first.

    When ``perspective`` is given, its incident channels are ignored when
    counting degrees, matching the subgraph ``G' = G - u`` of Section II-B.
    Ties are broken deterministically by node representation so results are
    stable across runs; the rank *factors* are tie-invariant anyway.
    """
    ranking = DegreeRanking(graph)
    nodes, _, moved = ranking.row(perspective)
    return [(node, moved.get(node, ranking.degrees[node])) for node in nodes]


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


def _block_factors(sizes: Iterable[int], s: float) -> List[float]:
    """Rank factor per position for consecutive tie blocks of ``sizes``."""
    factors: List[float] = []
    for size in sizes:
        factors.extend([_tie_block_average(len(factors) + 1, size, s)] * size)
    return factors


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
    check_zipf_s(s)
    if any(map(operator.lt, degrees, degrees[1:])):
        raise InvalidParameter("degrees must be sorted in non-increasing order")
    # sorted, so each degree's count is the size of its tie block
    return _block_factors(collections.Counter(degrees).values(), s)


def rank_factors(
    graph: ChannelGraph,
    perspective: Optional[Hashable] = None,
    s: float = 1.0,
) -> Dict[Hashable, float]:
    """Rank factor ``rf(v)`` of every node from ``perspective``'s view.

    The returned factors are *unnormalised*; divide by their sum to obtain
    transaction probabilities (see :class:`~repro.transactions.zipf.ModifiedZipf`).
    """
    return dict(zip(*DegreeRanking(graph).factors(perspective, s)))
