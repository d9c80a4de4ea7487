"""Utility of an *existing* node under the Section IV conventions.

Section IV restates the model for whole-network analysis with:

* ``b := N_{v1} * f_avg`` — constant revenue weight per routed pair;
* ``a := N_u * f^T_avg`` — constant fee weight for a node's own traffic;
* every channel costs each endpoint the same amount ``l`` (assumption 4);
* fees are charged per *intermediary* (distance minus one — the convention
  used throughout the Thm 8 proof);
* rank factors are **recomputed** on every deviated graph (the proof
  re-derives ``rf`` after each strategy change), unlike the frozen
  distribution of the joining-user model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from ..errors import InvalidParameter, NodeNotFound
from ..network.betweenness import pair_weighted_betweenness
from ..network.graph import ChannelGraph
from ..transactions.zipf import ModifiedZipf

__all__ = ["NetworkGameModel", "NodeUtilityBreakdown"]


@dataclass(frozen=True)
class NodeUtilityBreakdown:
    """Components of one node's utility in the network game."""

    revenue: float
    fees: float
    cost: float

    @property
    def utility(self) -> float:
        if math.isinf(self.fees):
            return -math.inf
        return self.revenue - self.fees - self.cost


class NetworkGameModel:
    """Evaluate node utilities in the PCN creation game of Section IV.

    Args:
        a: fee weight ``N_u * f^T_avg`` of a node's own transactions.
        b: revenue weight ``N_{v1} * f_avg`` per forwarded pair.
        edge_cost: per-channel cost ``l`` borne by *each* endpoint.
        zipf_s: Zipf parameter ``s`` of the transaction distribution.
    """

    def __init__(
        self,
        a: float = 1.0,
        b: float = 1.0,
        edge_cost: float = 1.0,
        zipf_s: float = 1.0,
    ) -> None:
        if a < 0 or b < 0 or edge_cost < 0:
            raise InvalidParameter("a, b and edge_cost must be >= 0")
        if zipf_s < 0:
            raise InvalidParameter("zipf_s must be >= 0")
        self.a = a
        self.b = b
        self.edge_cost = edge_cost
        self.zipf_s = zipf_s

    # -- components -----------------------------------------------------------

    def revenue(self, graph: ChannelGraph, node: Hashable) -> float:
        """``E_rev``: b-weighted intermediary betweenness of ``node``.

        Rank factors are computed fresh on ``graph``.
        """
        if node not in graph:
            raise NodeNotFound(node)
        digraph = graph.view(directed=True)
        index = digraph.node_index
        probs = ModifiedZipf(graph, s=self.zipf_s).pair_probabilities(
            digraph.nodes
        ).tolist()

        def weight(s: Hashable, r: Hashable) -> float:
            if s == node or r == node:
                return 0.0
            return self.b * probs[index[s]][index[r]]

        sources = [v for v in graph.nodes if v != node]
        result = pair_weighted_betweenness(digraph, weight, sources=sources)
        return result.node_value(node)

    def fees(self, graph: ChannelGraph, node: Hashable) -> float:
        """``E_fees``: a-weighted intermediary-count distance to receivers.

        Returns ``inf`` when any positive-probability receiver is
        unreachable (the paper's disconnected = infinitely costly).
        """
        if node not in graph:
            raise NodeNotFound(node)
        if graph.degree(node) == 0:
            return math.inf
        distribution = ModifiedZipf(graph, s=self.zipf_s)
        receivers = distribution.receivers(node)
        from ..core.fees_paid import expected_fees

        return expected_fees(
            graph.view(directed=True),
            node,
            receivers,
            user_tx_rate=1.0,
            fee_out_avg=self.a,
            hop_convention="intermediaries",
        )

    def cost(self, graph: ChannelGraph, node: Hashable) -> float:
        """``l * deg(node)`` — channel costs borne by ``node``."""
        return self.edge_cost * graph.degree(node)

    # -- aggregate --------------------------------------------------------------

    def breakdown(self, graph: ChannelGraph, node: Hashable) -> NodeUtilityBreakdown:
        return NodeUtilityBreakdown(
            revenue=self.revenue(graph, node),
            fees=self.fees(graph, node),
            cost=self.cost(graph, node),
        )

    def node_utility(self, graph: ChannelGraph, node: Hashable) -> float:
        """``U = E_rev - E_fees - l*deg``; ``-inf`` when disconnected."""
        return self.breakdown(graph, node).utility

