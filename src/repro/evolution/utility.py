"""Utility providers for the evolution engine's best-response phase.

:func:`~repro.equilibrium.nash.best_response` only needs an object with
``node_utility(graph, node)``; the engine therefore accepts any
:class:`UtilityProvider`. Two implementations ship:

* :class:`AnalyticUtilityProvider` — the Section IV
  :class:`~repro.equilibrium.node_utility.NetworkGameModel` closed-form
  utility (rank factors recomputed per candidate graph);
* :class:`EmpiricalUtilityProvider` — the traffic-coupled provider: the
  epoch's payment trace is replayed on every candidate graph through the
  batched backend (:class:`~repro.simulation.fastpath
  .BatchedSimulationEngine`) and a node's utility is its *observed*
  ``revenue - fees_paid - edge_cost * degree``. This is what makes the
  dynamics empirical: a deviation is judged by the traffic it would
  actually have routed, not by an analytic proxy.

``prepare(graph, metrics, trace, seed)`` is called once per epoch after
the traffic stage, so providers can cache whatever the epoch's
evaluations share.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Protocol, Sequence, runtime_checkable

from ..determinism import ordered_sum
from ..equilibrium.node_utility import NetworkGameModel
from ..equilibrium.welfare import social_welfare
from ..errors import SimulationError
from ..network.fees import FeeFunction
from ..network.graph import ChannelGraph
from ..simulation.fastpath import BatchedSimulationEngine
from ..simulation.metrics import SimulationMetrics
from ..transactions.workload import Transaction

__all__ = [
    "AnalyticUtilityProvider",
    "EmpiricalUtilityProvider",
    "UtilityProvider",
]


@runtime_checkable
class UtilityProvider(Protocol):
    """What the evolution engine needs from a utility model."""

    def prepare(
        self,
        graph: ChannelGraph,
        metrics: Optional[SimulationMetrics],
        trace: Sequence[Transaction],
        seed: int,
    ) -> None:
        """Adopt the epoch's traffic outcome (called once per epoch)."""
        ...

    def node_utility(self, graph: ChannelGraph, node: Hashable) -> float:
        """Utility of ``node`` on ``graph`` (also used on deviated copies)."""
        ...

    def rebase(self, graph: ChannelGraph) -> None:
        """Adopt ``graph`` as the new base state (after an applied move).

        Lets providers that measure by replay cache base-graph metrics
        across the remaining evaluations of the epoch.
        """
        ...

    def welfare(self, graph: ChannelGraph) -> float:
        """Total welfare of ``graph`` under this provider's utility."""
        ...


class AnalyticUtilityProvider:
    """The closed-form Section IV utility (no traffic coupling)."""

    def __init__(self, model: NetworkGameModel) -> None:
        self.model = model

    def prepare(self, graph, metrics, trace, seed) -> None:  # noqa: ARG002
        return None

    def rebase(self, graph: ChannelGraph) -> None:  # noqa: ARG002
        return None

    def node_utility(self, graph: ChannelGraph, node: Hashable) -> float:
        return self.model.node_utility(graph, node)

    def welfare(self, graph: ChannelGraph) -> float:
        return social_welfare(graph, self.model)


class EmpiricalUtilityProvider:
    """Revenue-based utility measured by replaying the epoch's trace.

    Args:
        edge_cost: per-channel cost ``l`` charged to each endpoint per
            epoch (the analytic model's cost term, kept so empirical and
            analytic runs price channels identically).
        fee: the scenario's fee function (``None`` = channel-configured
            fees), forwarded to the batched engine.
        fee_forwarding: whether intermediaries charge fees.
        path_selection: the router's tie-break policy.
    """

    def __init__(
        self,
        edge_cost: float = 1.0,
        fee: Optional[FeeFunction] = None,
        fee_forwarding: bool = True,
        path_selection: str = "random",
    ) -> None:
        self.edge_cost = edge_cost
        self.fee = fee
        self.fee_forwarding = fee_forwarding
        self.path_selection = path_selection
        self._trace: List[Transaction] = []
        self._seed = 0
        self._base_metrics: Optional[SimulationMetrics] = None
        self._base_version: Optional[int] = None
        self._base_graph: Optional[ChannelGraph] = None

    def prepare(
        self,
        graph: ChannelGraph,
        metrics: Optional[SimulationMetrics],
        trace: Sequence[Transaction],
        seed: int,
    ) -> None:
        if metrics is None:
            raise SimulationError(
                "the empirical utility provider needs a traffic epoch; "
                "set EvolutionSpec.traffic_horizon > 0"
            )
        self._trace = list(trace)
        self._seed = seed
        # The unmodified graph was already simulated by the traffic
        # stage — reuse those metrics for every base-utility evaluation
        # of the epoch instead of replaying the trace once per node.
        self._base_metrics = metrics
        self._base_graph = graph
        self._base_version = graph.version

    def rebase(self, graph: ChannelGraph) -> None:
        """Track the engine's working graph after an applied move.

        The next base-utility evaluation replays the trace once and the
        result is cached for every remaining node of the sweep; only
        deviated throwaway copies pay a per-call replay.
        """
        self._base_graph = graph
        self._base_version = graph.version
        self._base_metrics = None

    def _replay(self, graph: ChannelGraph) -> SimulationMetrics:
        engine = BatchedSimulationEngine(
            graph.copy(),
            fee=self.fee,
            fee_forwarding=self.fee_forwarding,
            path_selection=self.path_selection,
            seed=self._seed,
        )
        return engine.run_trace(self._trace)

    def _metrics_for(self, graph: ChannelGraph) -> SimulationMetrics:
        if (
            graph is self._base_graph
            and graph.version == self._base_version
        ):
            if self._base_metrics is None:
                self._base_metrics = self._replay(graph)
            return self._base_metrics
        return self._replay(graph)

    def node_utility(self, graph: ChannelGraph, node: Hashable) -> float:
        metrics = self._metrics_for(graph)
        return (
            metrics.revenue.get(node, 0.0)
            - metrics.fees_paid.get(node, 0.0)
            - self.edge_cost * len(graph.neighbors(node))
        )

    def welfare(self, graph: ChannelGraph) -> float:
        """Observed total: everyone's revenue minus fees minus costs.

        Fees paid to intermediaries cancel against their revenue, so
        this reduces to net value routed minus total channel costs.
        """
        metrics = self._metrics_for(graph)
        total_cost = sum(
            len(graph.neighbors(node)) for node in graph.nodes
        ) * self.edge_cost
        return (
            ordered_sum(metrics.revenue.values())
            - ordered_sum(metrics.fees_paid.values())
            - total_cost
        )
