"""Nash-equilibrium checking and best-response dynamics (Section IV).

A network is *stable* (a Nash equilibrium) when no node can strictly
increase its utility by any unilateral deviation. The checker evaluates a
deviation family per node (structured by default, exhaustive on request)
and reports the best improving move found for each node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..determinism import ordered_sum
from ..errors import InvalidParameter
from ..network.graph import ChannelGraph
from .deviations import (
    Deviation,
    apply_deviation,
    exhaustive_deviations,
    sampled_deviations,
    structured_deviations,
)
from .node_utility import NetworkGameModel

__all__ = [
    "DynamicsMove",
    "DynamicsOutcome",
    "NodeBestResponse",
    "NashReport",
    "best_response",
    "check_nash",
    "best_response_dynamics",
]


@dataclass
class NodeBestResponse:
    """Best deviation found for one node."""

    node: Hashable
    base_utility: float
    best_utility: float
    best_deviation: Optional[Deviation]

    @property
    def gain(self) -> float:
        if math.isinf(self.base_utility) and self.base_utility < 0:
            return math.inf if self.best_utility > -math.inf else 0.0
        return self.best_utility - self.base_utility

    @property
    def can_improve(self) -> bool:
        return self.best_deviation is not None


@dataclass(frozen=True)
class NashReport:
    """Stability verdict for a whole network."""

    responses: Dict[Hashable, NodeBestResponse] = field(default_factory=dict)

    @property
    def is_nash(self) -> bool:
        return not any(r.can_improve for r in self.responses.values())

    @property
    def deviating_nodes(self) -> List[Hashable]:
        return [n for n, r in self.responses.items() if r.can_improve]

    def max_gain(self) -> float:
        gains = [r.gain for r in self.responses.values() if r.can_improve]
        return max(gains, default=0.0)


def _deviation_family(
    graph: ChannelGraph,
    node: Hashable,
    mode: str,
    seed: Optional[int],
) -> Sequence[Deviation]:
    if mode == "structured":
        return structured_deviations(graph, node, seed=seed)
    if mode == "exhaustive":
        return exhaustive_deviations(graph, node)
    if mode == "sampled":
        return sampled_deviations(graph, node, seed=seed)
    raise InvalidParameter(
        f"mode must be structured/exhaustive/sampled, got {mode!r}"
    )


def best_response(
    graph: ChannelGraph,
    node: Hashable,
    model: NetworkGameModel,
    mode: str = "structured",
    tolerance: float = 1e-9,
    balance: float = 1.0,
    seed: Optional[int] = None,
    deviations: Optional[Sequence[Deviation]] = None,
) -> NodeBestResponse:
    """Best deviation for ``node`` within the chosen family.

    ``tolerance`` guards against declaring instability on floating-point
    noise: a deviation must improve by more than ``tolerance``.
    ``model`` may be any object with a ``node_utility(graph, node)``
    method — the analytic :class:`NetworkGameModel` or an empirical
    provider from :mod:`repro.evolution.utility`. An explicit
    ``deviations`` sequence overrides the ``mode`` family (used by the
    evolution engine to enforce per-node move budgets).
    """
    base = model.node_utility(graph, node)
    best_utility = base
    best_deviation: Optional[Deviation] = None
    if deviations is None:
        deviations = _deviation_family(graph, node, mode, seed)
    for deviation in deviations:
        deviated = apply_deviation(graph, node, deviation, balance=balance)
        utility = model.node_utility(deviated, node)
        if utility > best_utility + tolerance:
            best_utility = utility
            best_deviation = deviation
    return NodeBestResponse(
        node=node,
        base_utility=base,
        best_utility=best_utility,
        best_deviation=best_deviation,
    )


def check_nash(
    graph: ChannelGraph,
    model: NetworkGameModel,
    mode: str = "structured",
    tolerance: float = 1e-9,
    balance: float = 1.0,
    seed: Optional[int] = None,
    nodes: Optional[Sequence[Hashable]] = None,
) -> NashReport:
    """Check stability of ``graph`` against the deviation family.

    ``nodes`` restricts the check (e.g. one leaf + the center exploits the
    star's symmetry); default checks every node.
    """
    responses = {
        node: best_response(
            graph, node, model, mode=mode, tolerance=tolerance,
            balance=balance, seed=seed,
        )
        for node in (nodes if nodes is not None else graph.nodes)
    }
    return NashReport(responses)


@dataclass(frozen=True)
class DynamicsMove:
    """One applied improving move of a best-response dynamics round."""

    node: Hashable
    deviation: Deviation
    gain: float


@dataclass(frozen=True, eq=False)
class DynamicsOutcome:
    """Outcome of one :func:`best_response_dynamics` run.

    A process-local result *handle*, not a serialisable artifact — it
    carries the live final :class:`ChannelGraph` (hence the name stays
    off the ``*Report`` artifact namespace RPR003 polices).

    Iterable as the historical ``(final_graph, rounds, converged)``
    triple, so ``final, rounds, ok = best_response_dynamics(...)`` keeps
    working; ``moves`` additionally records every applied improving move
    per round (the final, quiet round of a converged run is an empty
    tuple).
    """

    graph: ChannelGraph
    rounds: int
    converged: bool
    moves: Tuple[Tuple[DynamicsMove, ...], ...] = ()

    @property
    def total_moves(self) -> int:
        return ordered_sum(len(round_moves) for round_moves in self.moves)

    def __iter__(self) -> Iterator:
        return iter((self.graph, self.rounds, self.converged))


def best_response_dynamics(
    graph: ChannelGraph,
    model: NetworkGameModel,
    max_rounds: int = 20,
    mode: str = "structured",
    tolerance: float = 1e-9,
    balance: float = 1.0,
    seed: Optional[int] = None,
) -> DynamicsOutcome:
    """Iterate best responses until no node improves (or ``max_rounds``).

    Returns a :class:`DynamicsOutcome` (iterable as the historical
    ``(final_graph, rounds_used, converged)`` triple). Each round sweeps
    nodes in canonical order and applies the first strictly improving best
    response found; NP-hardness of exact dynamics (Thm 2 of [19]) means
    this is a heuristic exploration tool, not a decision procedure.
    """
    current = graph.copy()
    rounds: List[Tuple[DynamicsMove, ...]] = []
    for round_index in range(max_rounds):
        round_moves: List[DynamicsMove] = []
        for node in sorted(current.nodes, key=str):
            response = best_response(
                current, node, model, mode=mode, tolerance=tolerance,
                balance=balance, seed=seed,
            )
            if response.can_improve:
                current = apply_deviation(
                    current, node, response.best_deviation, balance=balance
                )
                round_moves.append(DynamicsMove(
                    node=node,
                    deviation=response.best_deviation,
                    gain=response.gain,
                ))
        rounds.append(tuple(round_moves))
        if not round_moves:
            return DynamicsOutcome(
                graph=current, rounds=round_index + 1, converged=True,
                moves=tuple(rounds),
            )
    return DynamicsOutcome(
        graph=current, rounds=max_rounds, converged=False,
        moves=tuple(rounds),
    )
