"""The modified Zipf transaction distribution of Section II-B.

From the perspective of a sender ``u``, every other node ``v`` gets a
tie-averaged rank factor ``rf(v)`` (see :mod:`repro.transactions.ranking`)
based on its in-degree in ``G - u``, and

    p_trans(u, v) = rf(v) / sum_{v'} rf(v').

Higher-degree nodes are more likely transaction partners — the
degree-proportional pairing the paper motivates from Barabási–Albert-style
real networks. ``s`` tunes the skew: ``s = 0`` recovers the uniform model
of prior work, large ``s`` concentrates all traffic on the top-degree node.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import NodeNotFound
from ..network.graph import ChannelGraph
from .distributions import TransactionDistribution
from .ranking import DegreeRanking, check_zipf_s

__all__ = ["ModifiedZipf"]


class ModifiedZipf(TransactionDistribution):
    """Degree-ranked Zipf pairing with tie averaging.

    Args:
        graph: the PCN whose degrees define the ranking.
        s: Zipf scale parameter (>= 0).
        cache: memoise the graph's :class:`~repro.transactions.ranking.DegreeRanking`,
            which every sender's row is derived from, the per-sender rows and
            the sampling tables :meth:`sample_receiver` builds. The cache must
            be dropped whenever the graph's topology changes, since ranks
            depend on degrees: create a new instance, or call
            :meth:`invalidate`, which drops the ranking, rows and tables
            together. Balance moves leave them valid. With ``cache=False``
            none of them is kept.
    """

    def __init__(self, graph: ChannelGraph, s: float = 1.0, cache: bool = True) -> None:
        check_zipf_s(s)
        super().__init__()
        self.graph = graph
        self.s = s
        self._cache_enabled = cache
        self._ranking: Optional[DegreeRanking] = None
        self._rows: Dict[Hashable, Dict[Hashable, float]] = {}
        if not cache:
            self._tables = None

    def invalidate(self) -> None:
        """Drop the degree ranking, rows and sampling tables (call after
        changing the graph's topology)."""
        self._ranking = None
        self._rows.clear()
        if self._tables is not None:
            self._tables.clear()

    def _factors(self, sender: Hashable) -> Tuple[List[Hashable], List[float]]:
        if sender not in self.graph:
            raise NodeNotFound(sender)
        ranking = self._ranking or DegreeRanking(self.graph)
        if self._cache_enabled:
            self._ranking = ranking
        return ranking.factors(sender, self.s)

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        if self._cache_enabled and sender in self._rows:
            return dict(self._rows[sender])
        nodes, factors = self._factors(sender)
        total = sum(factors)
        row = {node: factor / total for node, factor in zip(nodes, factors)}
        if self._cache_enabled:
            self._rows[sender] = row
        return dict(row)

    def _row_arrays(self, sender: Hashable) -> Tuple[List[Hashable], np.ndarray]:
        # receivers()'s row without the dict: the same float division
        nodes, factors = self._factors(sender)
        probs = np.fromiter(factors, dtype=float, count=len(factors))
        probs /= sum(factors)
        return nodes, probs

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender == receiver:
            return 0.0
        return self.receivers(sender).get(receiver, 0.0)
