"""Who-transacts-with-whom distributions.

The paper's headline model is the modified Zipf distribution (implemented
in :mod:`repro.transactions.zipf`); prior work assumed uniform pairing.
Both are provided behind one interface so algorithms and benches can swap
the assumption and measure its effect (bench E12's ablations rely on this).
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = [
    "TransactionDistribution",
    "UniformDistribution",
    "EmpiricalDistribution",
    "choice_cdf",
]

#: ``Generator.choice``'s tolerance on ``sum(p) == 1``.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(len(probs), p=probs)`` builds.

    Applies ``choice``'s checks on ``probs`` (finite, non-negative, sums to
    1) and its float operations, so ``cdf.searchsorted(rng.random(),
    side="right")`` is the index ``choice`` would draw from the same stream.
    """
    # a NaN entry fails both comparisons, an infinite one makes the sum infinite
    if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= _SUM_TOLERANCE):
        raise InvalidParameter(
            "probabilities must be finite, non-negative and sum to 1"
        )
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


#: A sender's sampling table: receivers, and the cumulative table
#: :func:`choice_cdf` builds over their probabilities.
SamplingTable = Tuple[List[Hashable], np.ndarray]


class TransactionDistribution(abc.ABC):
    """Probability that a given sender transacts with a given receiver."""

    def __init__(self) -> None:
        # sender -> sampling table; None keeps no tables
        self._tables: Optional[Dict[Hashable, SamplingTable]] = {}

    @abc.abstractmethod
    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        """``p_trans(sender, receiver)``; 0 when ``sender == receiver``."""

    @abc.abstractmethod
    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        """Full receiver distribution of ``sender`` (sums to 1)."""

    def pair_probabilities(self, nodes: Sequence[Hashable]) -> np.ndarray:
        """``P[i, j] = p_trans(nodes[i], nodes[j])`` as an ``(n, n)``
        array, filled from :meth:`receivers`. A sender the distribution
        does not know gets a zero row; the diagonal and receivers outside
        ``nodes`` are dropped."""
        index = {node: i for i, node in enumerate(nodes)}
        table = np.zeros((len(nodes), len(nodes)))
        for i, sender in enumerate(nodes):
            try:
                row = self.receivers(sender)
            except NodeNotFound:
                continue
            for receiver, prob in row.items():
                j = index.get(receiver)
                if j is not None and j != i:
                    table[i, j] = prob
        return table

    def sample_receiver(
        self, sender: Hashable, rng: np.random.Generator
    ) -> Hashable:
        """Draw one receiver for ``sender``.

        RNG contract: each call consumes exactly one ``rng.random()`` and
        returns the receiver ``rng.choice(len(row), p=row)`` would return
        from the same stream, ``row`` being :meth:`receivers`'s
        distribution in its order. The sender's cumulative table is built
        on its first draw and kept (a ``ModifiedZipf(cache=False)`` keeps
        none), so later draws are one ``searchsorted``.
        """
        table = self._tables.get(sender) if self._tables is not None else None
        if table is None:
            table = self._build_table(sender)
        nodes, cdf = table
        return nodes[cdf.searchsorted(rng.random(), side="right")]

    def _build_table(self, sender: Hashable) -> SamplingTable:
        """``sender``'s sampling table, kept when tables are kept."""
        dist = self.receivers(sender)
        nodes = list(dist)
        probs = np.fromiter(dist.values(), dtype=float, count=len(nodes))
        table = self._sampling_table(sender, nodes, probs)
        if self._tables is not None:
            self._tables[sender] = table
        return table

    @staticmethod
    def _sampling_table(
        sender: Hashable, nodes: List[Hashable], probs: np.ndarray
    ) -> SamplingTable:
        """The table over ``probs``, normalised in place first."""
        total = probs.sum()
        if total <= 0:
            raise InvalidParameter(f"receiver distribution of {sender!r} is empty")
        probs /= total
        return nodes, choice_cdf(probs)


class UniformDistribution(TransactionDistribution):
    """Every other node is an equally likely receiver (the model of [19])."""

    def __init__(self, nodes: Sequence[Hashable]) -> None:
        if len(nodes) < 2:
            raise InvalidParameter("need at least two nodes")
        super().__init__()
        self._nodes = list(nodes)
        self._node_set = set(nodes)

    @classmethod
    def from_graph(cls, graph: ChannelGraph) -> "UniformDistribution":
        return cls(list(graph.nodes))

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender not in self._node_set:
            raise NodeNotFound(sender)
        if receiver == sender or receiver not in self._node_set:
            return 0.0
        return 1.0 / (len(self._nodes) - 1)

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        if sender not in self._node_set:
            raise NodeNotFound(sender)
        p = 1.0 / (len(self._nodes) - 1)
        return {node: p for node in self._nodes if node != sender}


class EmpiricalDistribution(TransactionDistribution):
    """A distribution given explicitly as per-sender receiver weights.

    Useful for feeding measured traffic matrices (or adversarial ones in
    tests) through the same code paths as the analytic models. Weights are
    normalised per sender.
    """

    def __init__(
        self, weights: Mapping[Hashable, Mapping[Hashable, float]]
    ) -> None:
        super().__init__()
        self._table: Dict[Hashable, Dict[Hashable, float]] = {}
        for sender, row in weights.items():
            cleaned = {
                receiver: float(weight)
                for receiver, weight in row.items()
                if receiver != sender and weight > 0
            }
            total = sum(cleaned.values())
            if total <= 0:
                raise InvalidParameter(
                    f"sender {sender!r} has no positive receiver weight"
                )
            self._table[sender] = {r: w / total for r, w in cleaned.items()}

    def probability(self, sender: Hashable, receiver: Hashable) -> float:
        if sender not in self._table:
            raise NodeNotFound(sender)
        return self._table[sender].get(receiver, 0.0)

    def receivers(self, sender: Hashable) -> Dict[Hashable, float]:
        if sender not in self._table:
            raise NodeNotFound(sender)
        return dict(self._table[sender])
