"""Section IV: network-game utilities, deviations, and stability analysis.

Import-order note: this ``__init__`` loads no submodule. The builtin
``star``/``path``/``circle``/``complete`` topology plugins live in
:mod:`~repro.equilibrium.topologies`, which every first topology lookup
imports; the game model, deviations and Nash checks load on first
attribute access (PEP 562), so a scenario that never analyses the game
never imports them.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - lazy at runtime, eager for typing
    from .conditions import (
        StarNEConditions,
        harmonic,
        hub_diameter_bound,
        star_ne_closed_form,
        star_ne_conditions,
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
    "star_ne_sufficient_thm9",
    "structured_deviations",
]

_LAZY_EXPORTS = {
    "CENTER": "topologies",
    "Deviation": "deviations",
    "DynamicsMove": "nash",
    "DynamicsOutcome": "nash",
    "HubPathAnalysis": "diameter",
    "NashReport": "nash",
    "NetworkGameModel": "node_utility",
    "NodeBestResponse": "nash",
    "NodeUtilityBreakdown": "node_utility",
    "StarNEConditions": "conditions",
    "TopologyWelfare": "welfare",
    "analyse_hub_path": "diameter",
    "apply_deviation": "deviations",
    "best_response": "nash",
    "best_response_dynamics": "nash",
    "check_nash": "nash",
    "circle": "topologies",
    "complete": "topologies",
    "evaluate_topologies": "welfare",
    "exhaustive_deviations": "deviations",
    "harmonic": "conditions",
    "hub_diameter_bound": "conditions",
    "longest_shortest_path_through": "diameter",
    "node_labels": "topologies",
    "path": "topologies",
    "price_of_anarchy": "welfare",
    "sampled_deviations": "deviations",
    "social_welfare": "welfare",
    "star": "topologies",
    "star_ne_closed_form": "conditions",
    "star_ne_conditions": "conditions",
    "star_ne_sufficient_thm9": "conditions",
    "structured_deviations": "deviations",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
