"""The modified Zipf transaction distribution of Section II-B.

From the perspective of a sender ``u``, every other node ``v`` gets a
tie-averaged rank factor ``rf(v)`` (see :mod:`repro.transactions.ranking`)
based on its in-degree in ``G - u``, and

    p_trans(u, v) = rf(v) / sum_{v'} rf(v').

Higher-degree nodes are more likely transaction partners — the
degree-proportional pairing the paper motivates from Barabási–Albert-style
real networks. ``s`` tunes the skew: ``s = 0`` recovers the uniform model
of prior work, large ``s`` concentrates all traffic on the top-degree node.

Every row comes from :meth:`DegreeRanking.probabilities
<repro.transactions.ranking.DegreeRanking.probabilities>`, which builds a
batch of senders' rows as arrays. A lone :meth:`ModifiedZipf.receivers`
call builds its own row only. The sampling tables and
:meth:`ModifiedZipf.pair_probabilities` build :data:`ROW_BATCH` senders
at a time.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NodeNotFound
from ..network.graph import ChannelGraph
from .distributions import SamplingTable, TransactionDistribution
from .ranking import DegreeRanking, check_zipf_s

__all__ = ["ModifiedZipf", "ROW_BATCH"]

#: Senders per batch of rows. On a 2-core VM a batch of 32 holds ~1 MB
#: of temporaries at n=200 (all 200 rows at once: 3.4 MB) and still
#: builds every row faster than one sender at a time (n=200: 9.2 vs
#: 10.7 ms; n=100: 3.0 vs 4.5 ms).
ROW_BATCH = 32


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

    def _degree_ranking(self) -> DegreeRanking:
        ranking = self._ranking or DegreeRanking(self.graph)
        if self._cache_enabled:
            self._ranking = ranking
        return ranking

    def _batch(
        self, senders: Sequence[Hashable]
    ) -> Tuple[List[List[Hashable]], np.ndarray]:
        """The rows of ``senders``: receivers in rank order, and a
        ``(len(senders), n - 1)`` array of their probabilities."""
        ranking = self._degree_ranking()
        positions = []
        for sender in senders:
            if sender not in self.graph:
                raise NodeNotFound(sender)
            positions.append(ranking.position(sender))
        order, probs = ranking.probabilities(positions, self.s)
        nodes = ranking.nodes
        return [[nodes[i] for i in row] for row in order.tolist()], probs

    def _row(self, sender: Hashable) -> Dict[Hashable, float]:
        row = self._rows.get(sender)
        if row is None:
            (nodes,), probs = self._batch([sender])
            row = dict(zip(nodes, probs[0].tolist()))
            if self._cache_enabled:
                self._rows[sender] = row
        return row

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        return dict(self._row(sender))

    def _build_table(self, sender: Hashable) -> SamplingTable:
        """Build the tables of the :data:`ROW_BATCH` block of graph order
        holding ``sender`` in one batch, and keep them (with
        ``cache=False``, ``sender``'s alone, kept nowhere)."""
        if self._tables is None:
            (nodes,), probs = self._batch([sender])
            return self._sampling_table(sender, nodes, probs[0])
        ranking = self._degree_ranking()
        start = ranking.position(sender) // ROW_BATCH * ROW_BATCH
        senders = [
            node for node in ranking.nodes[start:start + ROW_BATCH]
            if node == sender or (node not in self._tables and node in self.graph)
        ]
        rows, probs = self._batch(senders)
        for node, nodes, row in zip(senders, rows, probs):
            self._tables[node] = self._sampling_table(node, nodes, row)
        return self._tables[sender]

    def pair_probabilities(self, nodes: Sequence[Hashable]) -> np.ndarray:
        """The base class's table, built :data:`ROW_BATCH` senders at a
        time when ``nodes`` is the ranked graph's node order."""
        ranking = self._degree_ranking()
        if tuple(nodes) != ranking.nodes:
            return super().pair_probabilities(nodes)
        n = len(nodes)
        table = np.zeros((n, n))
        for start in range(0, n, ROW_BATCH):
            senders = list(range(start, min(n, start + ROW_BATCH)))
            order, probs = ranking.probabilities(senders, self.s)
            np.put_along_axis(table[start:start + len(senders)], order, probs, axis=1)
        return table

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender == receiver:
            return 0.0
        return self._row(sender).get(receiver, 0.0)
