"""Trajectory records of an evolution run, plus topology classification.

Every epoch of :class:`~repro.evolution.engine.EvolutionEngine` appends
one :class:`EpochRecord`; the finished run is a :class:`Trajectory` —
a plain-JSON-serialisable time series of topology statistics, welfare,
distance-to-NE, and the revenue Gini coefficient, with a flat ``row()``
form for sweep tables. :func:`classify_topology` names the Section IV
shapes (star / path / circle / complete) so emergence tables can ask
"which topology did the dynamics settle on?" without inspecting graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from ..determinism import ordered_sum
from ..network.graph import ChannelGraph

__all__ = ["EpochRecord", "Trajectory", "classify_topology", "gini"]

#: Version stamp of the ``Trajectory.to_dict`` document layout.
TRAJECTORY_SCHEMA_VERSION = 1


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of non-negative ``values`` (0 when degenerate).

    Computed from the sorted-values identity
    ``G = Σ_i (2i - n - 1) x_(i) / (n Σ x)``; an empty or all-zero
    population has no inequality to measure and returns 0.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    total = ordered_sum(ordered)
    if n == 0 or total <= 0:
        return 0.0
    weighted = ordered_sum((2 * (i + 1) - n - 1) * x for i, x in enumerate(ordered))
    return weighted / (n * total)


def classify_topology(graph: ChannelGraph) -> str:
    """Name the shape of ``graph``: the Section IV classes or ``"other"``.

    Classification uses the collapsed simple graph (parallel channels
    count once), so a star stays a star even if a pair holds two
    channels. Disconnected graphs are ``"other"`` except the trivial
    single-node/empty cases (``"degenerate"``).
    """
    n = len(graph)
    if n <= 1:
        return "degenerate"
    degrees = sorted(len(graph.neighbors(node)) for node in graph.nodes)
    edges = ordered_sum(degrees) // 2
    if degrees[0] == 0:
        return "other"
    if n >= 2 and degrees == [1] * (n - 1) + [n - 1]:
        # n == 2 also lands here (a single edge is a 1-leaf star).
        return "star"
    if degrees == [n - 1] * n:
        return "complete"
    if edges == n - 1 and degrees[:2] == [1, 1] and degrees[2:] == [2] * (n - 2):
        return "path" if _connected(graph) else "other"
    if edges == n and degrees == [2] * n:
        return "circle" if _connected(graph) else "other"
    return "other"


def _connected(graph: ChannelGraph) -> bool:
    nodes = graph.nodes
    if not nodes:
        return True
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        node = frontier.pop()
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(nodes)


@dataclass(frozen=True)
class EpochRecord:
    """Everything one evolution epoch produced, in plain JSON types.

    ``move_log`` holds one document per applied best-response move:
    ``{"node": ..., "gain": ..., "add": [...], "remove": [...]}``.
    ``max_gain`` is the largest improving gain *seen* during the sweep
    (each node evaluated against the graph state it deviated from) — the
    epoch's empirical distance-to-NE; 0 means no sampled node could
    improve.
    """

    epoch: int
    nodes: int
    channels: int
    arrivals: int
    departures: int
    closure_costs: float
    attempted: int
    succeeded: int
    success_rate: float
    total_revenue: float
    revenue_gini: float
    moves: int
    max_gain: float
    welfare: float
    topology: str
    move_log: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "epoch": self.epoch,
            "nodes": self.nodes,
            "channels": self.channels,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "closure_costs": self.closure_costs,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "success_rate": self.success_rate,
            "total_revenue": self.total_revenue,
            "revenue_gini": self.revenue_gini,
            "moves": self.moves,
            "max_gain": self.max_gain,
            "welfare": self.welfare,
            "topology": self.topology,
            "move_log": [dict(move) for move in self.move_log],
        }
        return doc


@dataclass(frozen=True)
class Trajectory:
    """The full record of one evolution run.

    Attributes:
        records: one :class:`EpochRecord` per executed epoch.
        converged: whether the run stopped because ``patience``
            consecutive epochs were quiet (no arrival, departure, or
            improving move) *and* no stochastic growth/churn process
            remained active, rather than by exhausting ``epochs``.
            Runs under live arrivals/churn always execute every epoch
            and report ``False`` — a randomly quiet stretch is not a
            rest point.
        epochs_run: number of executed epochs (== ``len(records)``).
        seed: the seed the run used.
        final_topology: :func:`classify_topology` of the final graph.
        nash_stable: full :func:`~repro.equilibrium.nash.check_nash`
            verdict on the final graph under the spec's analytic model;
            ``None`` when the spec disabled the final check.
        final_max_gain: the final check's residual best gain (``None``
            when disabled).
    """

    records: Tuple[EpochRecord, ...]
    converged: bool
    epochs_run: int
    seed: int
    final_topology: str
    nash_stable: Optional[bool] = None
    final_max_gain: Optional[float] = None
    totals: Dict[str, float] = field(default_factory=dict)

    def final(self) -> EpochRecord:
        if not self.records:
            raise ValueError("trajectory has no epochs")
        return self.records[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": TRAJECTORY_SCHEMA_VERSION,
            "converged": self.converged,
            "epochs_run": self.epochs_run,
            "seed": self.seed,
            "final_topology": self.final_topology,
            "nash_stable": self.nash_stable,
            "final_max_gain": self.final_max_gain,
            "totals": dict(self.totals),
            "epochs": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def row(self) -> Dict[str, Any]:
        """Flat headline columns for sweep tables (scalars only)."""
        last = self.final()
        row: Dict[str, Any] = {
            "epochs_run": self.epochs_run,
            "converged": self.converged,
            "final_nodes": last.nodes,
            "final_channels": last.channels,
            "final_topology": self.final_topology,
            "final_success_rate": last.success_rate,
            "final_welfare": last.welfare,
            "final_revenue_gini": last.revenue_gini,
            "max_gain": last.max_gain,
            "nash_stable": self.nash_stable,
            "final_max_gain": self.final_max_gain,
        }
        row.update(self.totals)
        return row
