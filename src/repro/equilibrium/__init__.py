"""Section IV: network-game utilities, deviations, and stability analysis."""

from .conditions import (
    StarNEConditions,
    harmonic,
    hub_diameter_bound,
    star_ne_closed_form,
    star_ne_conditions,
    star_ne_large_s_thm7,
    star_ne_sufficient_thm9,
)
from .deviations import (
    Deviation,
    apply_deviation,
    exhaustive_deviations,
    sampled_deviations,
    structured_deviations,
)
from .diameter import (
    HubPathAnalysis,
    analyse_hub_path,
    longest_shortest_path_through,
)
from .nash import (
    DynamicsMove,
    DynamicsOutcome,
    NashReport,
    NodeBestResponse,
    best_response,
    best_response_dynamics,
    check_nash,
)
from .node_utility import NetworkGameModel, NodeUtilityBreakdown
from .welfare import (
    TopologyWelfare,
    evaluate_topologies,
    price_of_anarchy,
    social_welfare,
)
from .topologies import CENTER, circle, complete, node_labels, path, star

__all__ = [
    "CENTER",
    "Deviation",
    "DynamicsMove",
    "DynamicsOutcome",
    "HubPathAnalysis",
    "NashReport",
    "NetworkGameModel",
    "NodeBestResponse",
    "NodeUtilityBreakdown",
    "StarNEConditions",
    "TopologyWelfare",
    "analyse_hub_path",
    "evaluate_topologies",
    "price_of_anarchy",
    "social_welfare",
    "apply_deviation",
    "best_response",
    "best_response_dynamics",
    "check_nash",
    "circle",
    "complete",
    "exhaustive_deviations",
    "harmonic",
    "hub_diameter_bound",
    "longest_shortest_path_through",
    "node_labels",
    "path",
    "sampled_deviations",
    "star",
    "star_ne_closed_form",
    "star_ne_conditions",
    "star_ne_large_s_thm7",
    "star_ne_sufficient_thm9",
    "structured_deviations",
]
