"""Departure processes: how nodes leave an evolving network.

A churn plugin (``repro.scenarios.registry.CHURN``) builds a
:class:`ChurnProcess`; per epoch it selects which nodes depart. The
engine closes every channel of a departing node through
:class:`~repro.network.lifecycle.ChannelLifecycle`, realising the
paper's Section II-C closure costs (unilateral-u / unilateral-v /
cooperative, equiprobable) so churn is not free — the trajectory
accounts the on-chain fees the network burned.

Selection iterates nodes in canonical (string-sorted) order and draws
one uniform per node, so a churn process is deterministic for a given
RNG state regardless of set/dict iteration order.
"""

from __future__ import annotations

from typing import Hashable, List

import numpy as np

from ..determinism import ordered_sum
from ..errors import InvalidParameter
from ..network.graph import ChannelGraph
from ..scenarios.registry import register_churn

__all__ = ["ChurnProcess", "DegreeBiasedChurn", "UniformChurn"]

#: Never churn the network below this many nodes by default.
DEFAULT_MIN_NODES = 3


class ChurnProcess:
    """Base departure process.

    Args:
        rate: per-node departure probability per epoch (scaled per node
            by subclasses).
        min_nodes: departures stop once the network would shrink below
            this floor — the evolution engine needs a non-degenerate
            graph to route traffic and evaluate utilities on.
    """

    def __init__(
        self, rate: float = 0.05, min_nodes: int = DEFAULT_MIN_NODES
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidParameter(
                f"churn rate must be in [0, 1], got {rate}"
            )
        if min_nodes < 2:
            raise InvalidParameter(
                f"min_nodes must be >= 2, got {min_nodes}"
            )
        self.rate = rate
        self.min_nodes = min_nodes

    def active(self) -> bool:
        """Whether future epochs can still see departures (see
        :meth:`ArrivalProcess.active
        <repro.evolution.growth.ArrivalProcess.active>`)."""
        return self.rate > 0

    def _prepare(self, graph: ChannelGraph) -> None:
        """Hook: cache per-epoch state before the per-node draws."""

    def _probability(self, graph: ChannelGraph, node: Hashable) -> float:
        raise NotImplementedError

    def departures(
        self, graph: ChannelGraph, rng: np.random.Generator
    ) -> List[Hashable]:
        """The nodes leaving this epoch (capped by ``min_nodes``)."""
        if self.rate == 0.0:
            return []
        allowed = len(graph) - self.min_nodes
        if allowed <= 0:
            return []
        self._prepare(graph)
        out: List[Hashable] = []
        for node in sorted(graph.nodes, key=str):
            # One draw per node even after the cap is hit keeps the RNG
            # stream length a function of the node count alone.
            draw = rng.random()
            if draw < self._probability(graph, node) and len(out) < allowed:
                out.append(node)
        return out


@register_churn("uniform")
class UniformChurn(ChurnProcess):
    """Every node departs independently with probability ``rate``."""

    def _probability(self, graph: ChannelGraph, node: Hashable) -> float:  # noqa: ARG002
        return self.rate


@register_churn("degree-biased")
class DegreeBiasedChurn(ChurnProcess):
    """Departure probability scaled by relative degree.

    A node of degree ``d`` departs with probability
    ``clip(rate * (d / avg_degree) ** bias, 0, 1)``: ``bias > 0``
    preferentially removes hubs (the "does the star survive its center
    churning?" stressor), ``bias < 0`` removes leaves, ``bias = 0``
    degenerates to :class:`UniformChurn`.
    """

    def __init__(
        self,
        rate: float = 0.05,
        bias: float = 1.0,
        min_nodes: int = DEFAULT_MIN_NODES,
    ) -> None:
        super().__init__(rate=rate, min_nodes=min_nodes)
        self.bias = bias
        self._average_degree = 0.0

    def _prepare(self, graph: ChannelGraph) -> None:
        degrees = [graph.degree(v) for v in graph.nodes]
        self._average_degree = (
            ordered_sum(degrees) / len(degrees) if degrees else 0.0
        )

    def _probability(self, graph: ChannelGraph, node: Hashable) -> float:
        average = self._average_degree
        if average <= 0:
            return self.rate
        degree = graph.degree(node)
        if degree == 0:
            scaled = self.rate if self.bias <= 0 else 0.0
        else:
            scaled = self.rate * (degree / average) ** self.bias
        return min(max(scaled, 0.0), 1.0)
