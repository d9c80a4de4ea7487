"""Exact optimum by exhaustive enumeration — the baseline for ratio checks.

Enumerates every subset of a candidate action set (optionally every
assignment of discretised locks) that fits the budget, and returns the
true optimum of the requested objective. Exponential; only for the small
instances used in tests and the approximation-ratio benches (E4-E6).
"""

from __future__ import annotations

import math
from itertools import combinations, islice
from typing import Optional, Sequence

from ...errors import InvalidParameter
from ..objective import ObjectiveEvaluator
from ..strategy import BUDGET_SLACK, Action, ActionSpace, Strategy
from ..utility import JoiningUserModel
from .common import OptimisationResult

__all__ = ["brute_force"]

#: Feasible subsets scored per batch; bounds memory on long enumerations.
CHUNK = 1024


def brute_force(
    model: JoiningUserModel,
    budget: float,
    omega: Optional[Sequence[Action]] = None,
    lock: float = 0.0,
    objective: str = "simplified",
    max_subset_size: Optional[int] = None,
) -> OptimisationResult:
    """Exact optimum of ``objective`` over budget-feasible subsets of Ω.

    Args:
        model: joining-user utility model.
        budget: ``B_u``.
        omega: candidate actions; defaults to fixed-lock Ω with ``lock``.
        lock: lock used for the default Ω.
        objective: ``"simplified"``, ``"utility"`` or ``"benefit"``.
        max_subset_size: optional cap on subset cardinality (defaults to
            what the budget can afford at the cheapest action cost).
    """
    if budget <= 0:
        raise InvalidParameter("budget must be > 0")
    if omega is None:
        omega = ActionSpace.fixed_lock(model.base_graph, model.new_user, lock)
    omega = list(omega)
    params = model.params
    cheapest = min(
        (action.budget_cost(params) for action in omega), default=math.inf
    )
    affordable = (
        int((budget + BUDGET_SLACK) / cheapest)
        if cheapest > 0 and cheapest != math.inf
        else 0
    )
    limit = affordable if max_subset_size is None else min(affordable, max_subset_size)
    evaluator = ObjectiveEvaluator(model, kind=objective)
    best = Strategy()
    best_value = evaluator(best)
    explored = 0
    feasible = (
        strategy
        for size in range(1, limit + 1)
        for strategy in map(Strategy, combinations(omega, size))
        if strategy.fits_budget(params, budget)
    )
    while True:
        chunk = list(islice(feasible, CHUNK))
        if not chunk:
            break
        explored += len(chunk)
        for strategy, value in zip(chunk, evaluator.many(chunk)):
            if value > best_value:
                best_value = value
                best = strategy
    return OptimisationResult(
        algorithm="bruteforce",
        strategy=best,
        objective_value=best_value,
        utility=model.utility(best),
        evaluations=evaluator.evaluations,
        details={"subsets_explored": explored, "omega_size": len(omega)},
    )
