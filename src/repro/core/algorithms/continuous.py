"""Continuous-funds optimisation of the benefit function (Section III-D).

With locks drawn from a continuous range, the paper maximises the *benefit
function* ``U^b(S) = C_u + U(S)`` — the gain over transacting purely
on-chain — which stays submodular and non-negative whenever the chosen
channels satisfy ``E_fees + (B_u/C) · L_u(v,l) < C_u``. It then invokes
Lee et al.'s local-search framework for non-monotone submodular
maximisation under a knapsack constraint to obtain a 1/5-approximation.

This module implements that recipe as an *approximate local search* over
(peer, lock) ground elements:

1. seed with the best single action;
2. repeatedly apply the best strictly-improving **add**, **drop**, or
   **swap** move that keeps the knapsack (budget) constraint feasible,
   requiring relative improvement ``>= epsilon / k^2`` per Lee et al.'s
   polynomial-time variant;
3. locks come from a geometric grid refined around the incumbent
   (continuous amounts cannot be enumerated; the grid-then-refine schedule
   is the standard discretisation and preserves the guarantee up to the
   grid resolution).

Because the paper's frozen-rate utility is non-increasing in the lock
amount (capital only matters through the reduced subgraph), callers who
want lock amounts to be economically meaningful should construct the model
with ``routing_amount > 0``; the optimiser then discovers that locks below
the routing amount make a channel useless for forwarding.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...errors import InvalidParameter
from ..costs import benefit_positivity_condition
from ..objective import ObjectiveEvaluator
from ..strategy import BUDGET_SLACK, Action, Strategy
from ..utility import JoiningUserModel
from .common import OptimisationResult

__all__ = ["continuous_local_search", "lock_grid"]


def lock_grid(
    budget: float,
    params_onchain_cost: float,
    routing_amount: float = 0.0,
    levels: int = 6,
) -> List[float]:
    """Candidate lock amounts: 0, the routing amount, and a geometric grid.

    The grid spans from 1% of the affordable maximum to the full
    affordable maximum ``budget - C`` in ``levels`` geometric steps.
    """
    if budget <= params_onchain_cost:
        return [0.0]
    affordable = budget - params_onchain_cost
    grid = {0.0}
    if 0.0 < routing_amount <= affordable:
        grid.add(routing_amount)
    lo = affordable * 0.01
    for value in np.geomspace(lo, affordable, levels):
        grid.add(float(value))
    return sorted(grid)


def continuous_local_search(
    model: JoiningUserModel,
    budget: float,
    locks: Optional[Sequence[float]] = None,
    epsilon: float = 0.01,
    max_iterations: int = 500,
    refine_rounds: int = 2,
) -> OptimisationResult:
    """Local-search maximisation of ``U^b`` under the budget knapsack.

    Args:
        model: joining-user utility model (ideally with
            ``routing_amount > 0`` so locks matter; see module docstring).
        budget: ``B_u``.
        locks: candidate lock amounts; default :func:`lock_grid`.
        epsilon: relative improvement threshold of the approximate local
            search (Lee et al.); smaller = closer to exact local optimum.
        max_iterations: hard cap on accepted moves.
        refine_rounds: after convergence, rebuild the lock grid around the
            incumbent locks and re-run, this many times.
    """
    if budget <= 0:
        raise InvalidParameter("budget must be > 0")
    params = model.params
    if locks is None:
        locks = lock_grid(budget, params.onchain_cost, model.routing_amount)
    evaluator = ObjectiveEvaluator(model, kind="benefit")
    peers = list(model.base_graph.nodes)

    def ground_set(lock_values: Sequence[float]) -> List[Action]:
        return [
            Action(peer, lock)
            for peer in peers
            for lock in lock_values
            if params.onchain_cost + lock <= budget + BUDGET_SLACK
        ]

    def feasible(strategies: List[Strategy]) -> List[Strategy]:
        return [s for s in strategies if s.fits_budget(params, budget)]

    def local_search(start: Strategy, elements: List[Action]) -> Strategy:
        current = start
        current_value = evaluator(current)
        for _ in range(max_iterations):
            threshold = abs(current_value) * epsilon / max(len(elements), 1) ** 2
            threshold = max(threshold, 1e-12)
            best_move: Optional[Strategy] = None
            best_value = current_value
            adds = [
                current.with_action(element)
                for element in elements
                if element not in current
            ]
            drops = [
                current.without_action(element)
                for element in set(current.actions)
            ]
            candidates = feasible(adds) + drops
            for candidate, value in zip(candidates, evaluator.many(candidates)):
                if value > best_value + threshold:
                    best_value = value
                    best_move = candidate
            # swaps (drop one, add one)
            if best_move is None:
                swaps = []
                for old in set(current.actions):
                    base = current.without_action(old)
                    swaps += [
                        base.with_action(new)
                        for new in elements
                        if new != old and new not in base
                    ]
                candidates = feasible(swaps)
                for candidate, value in zip(
                    candidates, evaluator.many(candidates)
                ):
                    if value > best_value + threshold:
                        best_value = value
                        best_move = candidate
            if best_move is None:
                break
            current = best_move
            current_value = best_value
        return current

    elements = ground_set(locks)
    # Seed: best feasible singleton (Lee et al. seed with the best single
    # element to anchor the approximation factor).
    best_single = Strategy()
    best_single_value = evaluator(best_single)
    singles = feasible([Strategy([element]) for element in elements])
    for candidate, value in zip(singles, evaluator.many(singles)):
        if value > best_single_value:
            best_single_value = value
            best_single = candidate
    incumbent = local_search(best_single, elements)

    for _ in range(refine_rounds):
        incumbent_locks = {action.locked for action in incumbent}
        refined = set(locks) | incumbent_locks
        for lock in incumbent_locks:
            refined.add(lock * 0.5)
            refined.add(lock * 1.5)
        refined = {
            l for l in refined if 0.0 <= l <= budget - params.onchain_cost
        }
        elements = ground_set(sorted(refined))
        incumbent = local_search(incumbent, elements)

    value = evaluator(incumbent)
    condition_ok = benefit_positivity_condition(
        params,
        expected_fees=model.expected_fees(incumbent),
        budget=budget,
        max_single_channel_cost=max(
            (a.utility_cost(params) for a in incumbent), default=params.onchain_cost
        ),
    )
    return OptimisationResult(
        algorithm="continuous",
        strategy=incumbent,
        objective_value=value,
        utility=model.utility(incumbent),
        evaluations=evaluator.evaluations,
        details={
            "positivity_condition": condition_ok,
            "epsilon": epsilon,
            "lock_candidates": len(elements),
        },
    )
