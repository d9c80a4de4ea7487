"""Algorithm 2 — exhaustive search over discretised channel funds.

Section III-C: funds locked per channel must be multiples of a granularity
``m``. The budget provides ``U = floor(B_u / m)`` units, split into
``k + 1`` parts where ``k = floor(B_u / C)`` bounds the number of channels
(the final part is capital deliberately left unspent). For every division,
Algorithm 1 runs with step ``j`` forced to lock ``l_j`` units, and the best
division wins — a ``(1 - 1/e)``-approximation of ``U'`` (Thm 5) in
``O(T · (B_u/C) · n)`` steps with ``T = C(U, k+1)`` divisions.

The division count explodes combinatorially (that is the theorem's
pseudo-polynomial bound), so the enumeration is lazy and can be capped
(``max_divisions``) or deduplicated to distinct multisets
(``unique_multisets=True``; the greedy subroutine treats a division as the
multiset of per-step locks sorted descending, so permutations are
redundant).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from ...determinism import ordered_sum
from ...errors import InvalidParameter
from ..objective import ObjectiveEvaluator
from ..strategy import BUDGET_SLACK, Action, Strategy
from ..utility import JoiningUserModel
from .common import OptimisationResult

__all__ = ["exhaustive_discrete", "fund_divisions", "count_divisions"]


def fund_divisions(
    units: int, parts: int, unique_multisets: bool = True
) -> Iterator[Tuple[int, ...]]:
    """Yield divisions of ``units`` indivisible units into ``parts`` parts.

    With ``unique_multisets`` (default) each division is a non-increasing
    tuple (a partition with at most ``parts`` parts, zero-padded);
    otherwise all weak compositions are generated, matching the paper's
    "array of all divisions" literally.
    """
    if units < 0 or parts < 1:
        raise InvalidParameter("need units >= 0 and parts >= 1")
    if unique_multisets:
        # partitions of `units` into at most `parts` parts, largest first
        def _partitions(remaining: int, slots: int, cap: int) -> Iterator[List[int]]:
            if slots == 1:
                if remaining <= cap:
                    yield [remaining]
                return
            for head in range(min(remaining, cap), -1, -1):
                for tail in _partitions(remaining - head, slots - 1, head):
                    yield [head] + tail

        for division in _partitions(units, parts, units):
            yield tuple(division)
    else:
        def _compositions(remaining: int, slots: int) -> Iterator[List[int]]:
            if slots == 1:
                yield [remaining]
                return
            for head in range(remaining + 1):
                for tail in _compositions(remaining - head, slots - 1):
                    yield [head] + tail

        for division in _compositions(units, parts):
            yield tuple(division)


def count_divisions(units: int, parts: int, unique_multisets: bool = True) -> int:
    """Number of divisions :func:`fund_divisions` would yield.

    Compositions: ``C(units + parts - 1, parts - 1)`` (the paper's ``T``
    up to its binomial convention); partitions are counted by recursion.
    """
    if not unique_multisets:
        return math.comb(units + parts - 1, parts - 1)
    seen = {}

    def _count(remaining: int, slots: int, cap: int) -> int:
        if slots == 1:
            return 1 if remaining <= cap else 0
        key = (remaining, slots, min(cap, remaining))
        if key in seen:
            return seen[key]
        total = ordered_sum(
            _count(remaining - head, slots - 1, head)
            for head in range(min(remaining, cap), -1, -1)
        )
        seen[key] = total
        return total

    return _count(units, parts, units)


def _greedy_with_lock_schedule(
    evaluator: ObjectiveEvaluator,
    model: JoiningUserModel,
    locks: Sequence[float],
    budget: float,
) -> Tuple[Strategy, float]:
    """Algorithm 1 with step ``j`` restricted to lock ``locks[j]``.

    Steps whose lock no longer fits the remaining budget are skipped;
    the best prefix by objective value is returned.
    """
    params = model.params
    peers = [p for p in model.base_graph.nodes]
    strategy = Strategy()
    spent = 0.0
    best_strategy = strategy
    best_value = evaluator(strategy)
    used_peers: set = set()
    for lock in locks:
        step_cost = params.onchain_cost + lock
        if spent + step_cost > budget + BUDGET_SLACK:
            continue
        best_action = None
        best_step_value = -math.inf
        actions = [Action(peer, lock) for peer in peers if peer not in used_peers]
        values = evaluator.many([strategy.with_action(a) for a in actions])
        for action, value in zip(actions, values):
            if value > best_step_value:
                best_step_value = value
                best_action = action
        if best_action is None:
            break
        strategy = strategy.with_action(best_action)
        used_peers.add(best_action.peer)
        spent += step_cost
        if best_step_value > best_value:
            best_value = best_step_value
            best_strategy = strategy
    return best_strategy, best_value


def exhaustive_discrete(
    model: JoiningUserModel,
    budget: float,
    granularity: float,
    objective: str = "simplified",
    unique_multisets: bool = True,
    max_divisions: Optional[int] = None,
) -> OptimisationResult:
    """Algorithm 2 end-to-end.

    Args:
        model: joining-user utility model.
        budget: ``B_u``.
        granularity: ``m`` — locks are ``k * m``.
        objective: objective for the greedy subroutine (paper: ``U'``).
        unique_multisets: deduplicate permuted divisions (see module doc).
        max_divisions: optional cap on how many divisions to try; when hit,
            the result records ``truncated=True`` (the approximation
            guarantee then only covers the explored region).
    """
    if budget <= 0 or granularity <= 0:
        raise InvalidParameter("budget and granularity must be > 0")
    params = model.params
    units = int((budget + BUDGET_SLACK) / granularity)
    max_channels = int((budget + BUDGET_SLACK) / params.onchain_cost)
    if max_channels < 1:
        raise InvalidParameter("budget cannot afford a single channel")
    evaluator = ObjectiveEvaluator(model, kind=objective)
    best_strategy = Strategy()
    best_value = evaluator(best_strategy)
    divisions_tried = 0
    truncated = False
    for division in fund_divisions(
        units, max_channels + 1, unique_multisets=unique_multisets
    ):
        if max_divisions is not None and divisions_tried >= max_divisions:
            truncated = True
            break
        divisions_tried += 1
        # The first `max_channels` parts are lock schedules; the final part
        # is unspent reserve.
        locks = [part * granularity for part in division[:max_channels]]
        strategy, value = _greedy_with_lock_schedule(
            evaluator, model, locks, budget
        )
        if value > best_value:
            best_value = value
            best_strategy = strategy
    best_strategy.check_budget(params, budget)
    return OptimisationResult(
        algorithm="exhaustive",
        strategy=best_strategy,
        objective_value=best_value,
        utility=model.utility(best_strategy),
        evaluations=evaluator.evaluations,
        details={
            "divisions_tried": divisions_tried,
            "units": units,
            "max_channels": max_channels,
            "granularity": granularity,
            "truncated": truncated,
        },
    )
