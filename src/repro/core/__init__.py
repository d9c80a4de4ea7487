"""The paper's primary contribution: joining-user utility and optimisers."""

from .algorithms import (
    OptimisationResult,
    brute_force,
    continuous_local_search,
    count_divisions,
    exhaustive_discrete,
    fund_divisions,
    greedy_fixed_funds,
    greedy_over_actions,
    lock_grid,
)
from .costmodels import CostModel, DiscountedOpportunityCost
from .costs import benefit_positivity_condition
from .fees_paid import HOP_CONVENTIONS, expected_fees, single_source_hops
from .objective import ObjectiveEvaluator
from .properties import (
    SubmodularityReport,
    check_monotonicity,
    check_submodularity,
    find_negative_utility_example,
)
from .revenue import expected_revenue, revenue_profile
from .strategy import Action, ActionSpace, Strategy
from .utility import JoiningUserModel

__all__ = [
    "Action",
    "ActionSpace",
    "CostModel",
    "DiscountedOpportunityCost",
    "HOP_CONVENTIONS",
    "JoiningUserModel",
    "ObjectiveEvaluator",
    "OptimisationResult",
    "Strategy",
    "SubmodularityReport",
    "benefit_positivity_condition",
    "brute_force",
    "check_monotonicity",
    "check_submodularity",
    "continuous_local_search",
    "count_divisions",
    "exhaustive_discrete",
    "expected_fees",
    "expected_revenue",
    "find_negative_utility_example",
    "fund_divisions",
    "greedy_fixed_funds",
    "greedy_over_actions",
    "lock_grid",
    "revenue_profile",
    "single_source_hops",
]
