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

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from ..errors import NodeNotFound
from ..network.graph import ChannelGraph
from .distributions import SamplingTable, TransactionDistribution
from .ranking import DegreeRanking, check_zipf_s

__all__ = ["ModifiedZipf", "ROW_BATCH"]

#: Senders per batch of rows. Building one batch of 32 sampling tables
#: at n=200 peaks at ~0.3 MB of traced memory (all 200 at once: 1.4 MB).
#: Every sender's table then takes as long as in one batch of all (on a
#: 2-core VM, n=200: 5.3-5.8 vs 6.1-7.1 ms) and a fifth of one sender at
#: a time (27-31 ms; n=100: 2.3-2.5 vs 8.8-9.9 ms).
ROW_BATCH = 32


class ModifiedZipf(TransactionDistribution):
    """Degree-ranked Zipf pairing with tie averaging.

    The graph's :class:`~repro.transactions.ranking.DegreeRanking`, which
    every sender's row is derived from, the per-sender rows and the
    sampling tables :meth:`sample_receiver` builds are kept. Ranks depend
    on degrees, so build a new instance after changing the graph's
    topology; balance moves leave them valid.

    Args:
        graph: the PCN whose degrees define the ranking.
        s: Zipf scale parameter (>= 0).
    """

    def __init__(self, graph: ChannelGraph, s: float = 1.0) -> None:
        check_zipf_s(s)
        super().__init__()
        self.graph = graph
        self.s = s
        self._ranking: Optional[DegreeRanking] = None
        self._rows: Dict[Hashable, Dict[Hashable, float]] = {}

    def _degree_ranking(self) -> DegreeRanking:
        if self._ranking is None:
            self._ranking = DegreeRanking(self.graph)
        return self._ranking

    def _batch(
        self, senders: Sequence[Hashable]
    ) -> Tuple[Tuple[Hashable, ...], np.ndarray, np.ndarray]:
        """``(nodes, order, probs)``: the ranked graph's nodes, and one
        row per sender of its receivers as indices into ``nodes`` in rank
        order, with a ``(len(senders), n - 1)`` array of their
        probabilities."""
        ranking = self._degree_ranking()
        positions = []
        for sender in senders:
            if sender not in self.graph:
                raise NodeNotFound(sender)
            positions.append(ranking.position(sender))
        order, probs = ranking.probabilities(positions, self.s)
        return ranking.nodes, order, probs

    def _row(self, sender: Hashable) -> Dict[Hashable, float]:
        row = self._rows.get(sender)
        if row is None:
            nodes, order, probs = self._batch([sender])
            row = self._rows[sender] = dict(zip(
                [nodes[i] for i in order[0].tolist()], probs[0].tolist()
            ))
        return row

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        return dict(self._row(sender))

    def _build_table(self, sender: Hashable) -> SamplingTable:
        """Build the tables of the :data:`ROW_BATCH` block of graph order
        holding ``sender`` as one 2-D cumulative table over the rows of
        receiver indices, and keep them."""
        ranking = self._degree_ranking()
        start = ranking.position(sender) // ROW_BATCH * ROW_BATCH
        senders = [
            node for node in ranking.nodes[start:start + ROW_BATCH]
            if node == sender
            or (node not in self._tables and node in self.graph)
        ]
        nodes, order, probs = self._batch(senders)
        self._tables.update(zip(senders, (
            (nodes, row, cdf)
            for row, cdf in zip(order, self._cdf_rows(senders, probs))
        )))
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
