"""Shared result types for the Section III optimisation algorithms."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

from ..strategy import Strategy

__all__ = ["OptimisationResult"]

#: Version stamp of the ``to_dict`` document layout.
RESULT_SCHEMA_VERSION = 1


@dataclass
class OptimisationResult:
    """Outcome of one optimiser run.

    Attributes:
        algorithm: short name (``"greedy"``, ``"exhaustive"``, ...).
        strategy: the best strategy found.
        objective_value: value of the objective the algorithm optimised
            (``U'`` for Algorithms 1-2, ``U^b`` for the continuous one).
        utility: the *full* utility ``U`` of the chosen strategy, so that
            runs with different objectives are comparable.
        evaluations: number of true (uncached) objective evaluations.
        details: algorithm-specific extras (prefix values, division counts,
            iteration logs, ...).
    """

    algorithm: str
    strategy: Strategy
    objective_value: float
    utility: float
    evaluations: int = 0
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON document; the strategy flattens to ``[peer, locked]``
        pairs."""
        details = json.loads(json.dumps(self.details, default=str))
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "strategy": [
                [action.peer, action.locked] for action in self.strategy
            ],
            "objective_value": self.objective_value,
            "utility": self.utility,
            "evaluations": self.evaluations,
            "details": details,
        }

    def summary(self) -> str:
        """One-line human-readable description."""
        peers = ", ".join(
            f"{action.peer}:{action.locked:g}" for action in self.strategy
        )
        return (
            f"[{self.algorithm}] objective={self.objective_value:.6g} "
            f"utility={self.utility:.6g} channels={len(self.strategy)} "
            f"({peers}) evals={self.evaluations}"
        )
