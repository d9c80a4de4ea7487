"""Empirical checks of Theorems 1–3 (objective-function properties).

Theorem 1: ``U`` is submodular. Theorem 2: ``U`` is non-monotone but
``U' = E_rev - E_fees`` is monotone increasing. Theorem 3: ``U`` can be
negative. These checkers sample random configurations and report
violations/witnesses; they back the property-based tests and bench E3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .objective import ObjectiveEvaluator
from .strategy import Action, Strategy

__all__ = [
    "SubmodularityReport",
    "check_submodularity",
    "check_monotonicity",
    "find_negative_utility_example",
]

#: Violating ``(S1, S2, X)`` triples a :class:`SubmodularityReport` keeps.
MAX_WITNESSES = 5


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of randomised submodularity trials."""

    trials: int
    violations: int
    worst_gap: float = 0.0
    witnesses: Tuple[Tuple[Strategy, Strategy, Action], ...] = ()


def _random_nested_pair(
    omega: Sequence[Action], rng: np.random.Generator
) -> Tuple[Strategy, Strategy, Action]:
    """Random ``S1 ⊆ S2`` and ``X ∉ S2`` drawn from ``omega``."""
    actions = list(omega)
    rng.shuffle(actions)
    x = actions.pop()
    size2 = int(rng.integers(0, len(actions) + 1))
    chosen2 = actions[:size2]
    size1 = int(rng.integers(0, size2 + 1))
    chosen1 = chosen2[:size1]
    return Strategy(chosen1), Strategy(chosen2), x


def check_submodularity(
    evaluator: ObjectiveEvaluator,
    omega: Sequence[Action],
    trials: int = 100,
    seed: Optional[int] = None,
    tolerance: float = 1e-9,
) -> SubmodularityReport:
    """Test ``f(S2 + X) - f(S2) <= f(S1 + X) - f(S1)`` on random nestings.

    Infinite values (disconnected strategies) are skipped: the paper's
    submodularity argument applies on the connected domain.
    """
    if len(omega) < 2:
        raise ValueError("need at least two candidate actions")
    rng = np.random.default_rng(seed)
    violations = 0
    worst_gap = 0.0
    witnesses: List[Tuple[Strategy, Strategy, Action]] = []
    for _ in range(trials):
        s1, s2, x = _random_nested_pair(omega, rng)
        values = [
            evaluator(s1),
            evaluator(s1.with_action(x)),
            evaluator(s2),
            evaluator(s2.with_action(x)),
        ]
        if any(math.isinf(v) for v in values):
            continue
        gain_small = values[1] - values[0]
        gain_large = values[3] - values[2]
        gap = gain_large - gain_small
        if gap > tolerance:
            violations += 1
            worst_gap = max(worst_gap, gap)
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append((s1, s2, x))
    return SubmodularityReport(
        trials=trials, violations=violations, worst_gap=worst_gap,
        witnesses=tuple(witnesses),
    )


def check_monotonicity(
    evaluator: ObjectiveEvaluator,
    omega: Sequence[Action],
    trials: int = 100,
    seed: Optional[int] = None,
    tolerance: float = 1e-9,
) -> Tuple[int, int]:
    """Count monotonicity violations ``f(S + X) < f(S)`` on random draws.

    Returns ``(trials_run, violations)``. For ``U'`` Thm 2 predicts zero
    violations; for the full ``U`` violations are expected to exist for
    suitable cost parameters.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    ran = 0
    for _ in range(trials):
        s1, _s2, x = _random_nested_pair(omega, rng)
        before = evaluator(s1)
        after = evaluator(s1.with_action(x))
        if math.isinf(before) or math.isinf(after):
            continue
        ran += 1
        if after < before - tolerance:
            violations += 1
    return ran, violations


def find_negative_utility_example(
    evaluator: ObjectiveEvaluator,
    omega: Sequence[Action],
    trials: int = 100,
    seed: Optional[int] = None,
) -> Optional[Strategy]:
    """Search for a strategy with strictly negative finite value (Thm 3)."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        s1, s2, _x = _random_nested_pair(omega, rng)
        for strategy in (s1, s2):
            value = evaluator(strategy)
            if not math.isinf(value) and value < 0:
                return strategy
    return None
