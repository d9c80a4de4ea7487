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

from typing import Dict, Hashable

from ..errors import NodeNotFound
from ..network.graph import ChannelGraph
from .distributions import TransactionDistribution
from .ranking import rank_factors

__all__ = ["ModifiedZipf"]


class ModifiedZipf(TransactionDistribution):
    """Degree-ranked Zipf pairing with tie averaging.

    Args:
        graph: the PCN whose degrees define the ranking.
        s: Zipf scale parameter (>= 0).
        cache: memoise per-sender rows and the sampling tables
            :meth:`sample_receiver` builds from them. The cache must be
            dropped (create a new instance, or call :meth:`invalidate`)
            whenever the graph's topology changes, since ranks depend on
            degrees. With ``cache=False`` neither is kept.
    """

    def __init__(self, graph: ChannelGraph, s: float = 1.0, cache: bool = True) -> None:
        super().__init__()
        self.graph = graph
        self.s = s
        self._cache_enabled = cache
        self._rows: Dict[Hashable, Dict[Hashable, float]] = {}
        if not cache:
            self._tables = None

    def invalidate(self) -> None:
        """Drop memoised rows and sampling tables (call after mutating the graph)."""
        self._rows.clear()
        if self._tables is not None:
            self._tables.clear()

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        if sender not in self.graph:
            raise NodeNotFound(sender)
        if self._cache_enabled and sender in self._rows:
            return dict(self._rows[sender])
        factors = rank_factors(self.graph, perspective=sender, s=self.s)
        total = sum(factors.values())
        row = {node: factor / total for node, factor in factors.items()}
        if self._cache_enabled:
            self._rows[sender] = row
        return dict(row)

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender == receiver:
            return 0.0
        return self.receivers(sender).get(receiver, 0.0)

    def rank_factor(self, sender: Hashable, node: Hashable) -> float:
        """Unnormalised ``rf(node)`` from ``sender``'s perspective."""
        factors = rank_factors(self.graph, perspective=sender, s=self.s)
        return factors.get(node, 0.0)
