"""Optimisation algorithms of Section III.

The entry points share the :class:`~repro.scenarios.registry
.JoinAlgorithm` protocol — ``algorithm(model, **kwargs) ->
OptimisationResult`` — and register themselves in the scenario layer's
algorithm registry so ``AlgorithmSpec(kind="greedy")`` and friends resolve
to them.
"""

from ...scenarios.registry import register_algorithm
from .bruteforce import brute_force
from .common import OptimisationResult
from .continuous import continuous_local_search, lock_grid
from .exhaustive import count_divisions, exhaustive_discrete, fund_divisions
from .greedy import greedy_fixed_funds, greedy_over_actions
from .random_attach import random_attach

register_algorithm("greedy")(greedy_fixed_funds)
register_algorithm("exhaustive")(exhaustive_discrete)
register_algorithm("continuous")(continuous_local_search)
register_algorithm("bruteforce")(brute_force)
register_algorithm("random-attach")(random_attach)

__all__ = [
    "OptimisationResult",
    "brute_force",
    "continuous_local_search",
    "count_divisions",
    "exhaustive_discrete",
    "fund_divisions",
    "greedy_fixed_funds",
    "greedy_over_actions",
    "lock_grid",
    "random_attach",
]
