"""Algorithm 1 — greedy channel selection with fixed funds per channel.

Section III-B: with every channel locking the same amount ``l1``, the
budget allows at most ``M = floor(B_u / (C + l1))`` channels. Greedily
adding the channel with the largest marginal gain of the monotone
submodular ``U' = E_rev - E_fees`` and returning the best prefix yields a
``(1 - 1/e)``-approximation (Thm 4) in ``O(M · n)`` objective evaluations.

Those evaluations are scored in ``M`` batches: each step hands all of
its candidates to :meth:`~repro.core.objective.ObjectiveEvaluator.many`
(one pass of the model's batch kernel) and then walks the values in
candidate order, so the first strict maximum still wins.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ...errors import InvalidParameter
from ..objective import ObjectiveEvaluator
from ..strategy import Action, ActionSpace, Strategy
from ..utility import JoiningUserModel
from .common import OptimisationResult

__all__ = ["greedy_fixed_funds", "greedy_over_actions"]


def greedy_over_actions(
    evaluator: ObjectiveEvaluator,
    omega: Sequence[Action],
    max_channels: int,
    allow_reuse: bool = False,
) -> OptimisationResult:
    """Core greedy loop of Algorithm 1 over an explicit action set.

    Args:
        evaluator: caching objective (normally ``U'``).
        omega: candidate actions Ω.
        max_channels: ``M``, the prefix length bound.
        allow_reuse: when True an action may be picked repeatedly
            (parallel channels); the paper removes picked actions from
            ``A``, which is the default.

    Returns:
        the best greedy *prefix* by objective value (the paper's final
        ``argmax`` over ``PU``).
    """
    if max_channels < 0:
        raise InvalidParameter("max_channels must be >= 0")
    available: List[Action] = list(omega)
    strategy = Strategy()
    best, best_objective = strategy, evaluator(strategy)
    # Only non-empty prefixes are recorded: the empty strategy of an
    # unreachable new user scores -inf, which a result document cannot hold.
    prefix_values: List[float] = []
    prefix_sizes: List[int] = []
    while len(strategy) < max_channels and available:
        best_action = None
        best_value = -math.inf
        values = evaluator.many(
            [strategy.with_action(action) for action in available]
        )
        for action, value in zip(available, values):
            if value > best_value:
                best_value = value
                best_action = action
        if best_action is None:
            break
        strategy = strategy.with_action(best_action)
        if not allow_reuse:
            available.remove(best_action)
        prefix_values.append(best_value)
        prefix_sizes.append(len(strategy))
        if best_value > best_objective:
            best, best_objective = strategy, best_value
    return OptimisationResult(
        algorithm="greedy",
        strategy=best,
        objective_value=best_objective,
        utility=evaluator.model.utility(best),
        evaluations=evaluator.evaluations,
        details={
            "prefix_values": prefix_values,
            "prefix_sizes": prefix_sizes,
        },
    )


def greedy_fixed_funds(
    model: JoiningUserModel,
    budget: float,
    lock: float,
    objective: str = "simplified",
) -> OptimisationResult:
    """Algorithm 1 end-to-end: build Ω with fixed lock ``l1`` and run greedy.

    Args:
        model: joining-user utility model.
        budget: ``B_u``.
        lock: ``l1``, funds locked into every channel.
        objective: objective to greedily maximise; the paper's guarantee
            holds for ``"simplified"`` (``U'``).
    """
    if budget <= 0:
        raise InvalidParameter("budget must be > 0")
    omega = ActionSpace.fixed_lock(model.base_graph, model.new_user, lock)
    max_channels = ActionSpace.max_channels(model.params, budget, lock)
    evaluator = ObjectiveEvaluator(model, kind=objective)
    result = greedy_over_actions(evaluator, omega, max_channels)
    result.details["max_channels"] = max_channels
    result.details["budget"] = budget
    result.details["lock"] = lock
    result.strategy.check_budget(model.params, budget)
    return result
