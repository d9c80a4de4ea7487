"""``repro`` — a reproduction of "Lightning Creation Games" (ICDCS 2023).

The library models the incentive structure behind payment channel network
(PCN) creation:

* :mod:`repro.network` — channels, the channel graph with its immutable
  CSR :class:`GraphView` snapshots, routing, fees, and pair-weighted
  betweenness (the PCN substrate);
* :mod:`repro.transactions` — the modified-Zipf transaction distribution,
  size distributions, Poisson workloads, and rate estimation (Eq. 2);
* :mod:`repro.snapshots` — synthetic Lightning-like topologies and
  describegraph-style snapshot IO;
* :mod:`repro.core` — the joining user's utility function (Section II-C)
  and the optimisation algorithms of Section III;
* :mod:`repro.equilibrium` — the network creation game of Section IV:
  Nash-equilibrium checks and the closed-form theorem conditions;
* :mod:`repro.simulation` — a discrete-event payment simulator providing
  the empirical counterparts of the analytic quantities;
* :mod:`repro.analysis` — sweep and table helpers for the experiments;
* :mod:`repro.scenarios` — the declarative scenario layer: JSON-round-trip
  specs, plugin registries, and the serial/parallel scenario runner that
  every driver (CLI, examples, sweeps) goes through;
* :mod:`repro.attacks` — the adversarial traffic engine: channel jamming,
  liquidity griefing, and baseline-vs-attacked damage reports over the
  same discrete-event substrate;
* :mod:`repro.evolution` — the traffic-coupled network evolution engine:
  epoch-based arrivals, churn with realised closure costs, batched
  traffic epochs, and empirical best-response dynamics recording
  emergence trajectories.

Quickstart::

    from repro import Scenario, ScenarioRunner, TopologySpec, AlgorithmSpec

    scenario = Scenario(
        topology=TopologySpec("ba", {"n": 50}),
        algorithm=AlgorithmSpec("greedy", {"budget": 10.0, "lock": 1.0}),
        seed=7,
    )
    result = ScenarioRunner().run(scenario)
    print(result.optimisation.summary())

The lower-level models remain available for direct use::

    from repro import ModelParameters, JoiningUserModel, greedy_fixed_funds
    from repro.snapshots import barabasi_albert_snapshot

    graph = barabasi_albert_snapshot(50, seed=7)
    model = JoiningUserModel(graph, "me", ModelParameters())
    result = greedy_fixed_funds(model, budget=10.0, lock=1.0)
    print(result.summary())

Import-order note: ``import repro`` loads no other ``repro`` module. Every
name in ``__all__`` resolves on first access (PEP 562) by importing the
subpackage that provides it, and ``repro.<subpackage>`` imports that
subpackage, so each entry point pays only for the layers it runs.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - lazy at runtime, eager for typing
    from .errors import (
        BudgetExceeded,
        ChannelNotFound,
        DuplicateChannel,
        GraphError,
        HtlcError,
        InsufficientBalance,
        InvalidParameter,
        NodeNotFound,
        ReproError,
        RoutingError,
        SimulationError,
        SnapshotFormatError,
    )
    from .params import DEFAULT_PARAMS, ModelParameters
    from .network import (
        BetweennessArrays,
        Channel,
        ChannelGraph,
        GraphView,
        betweenness_arrays,
    )
    from .core import (
        Action,
        ActionSpace,
        JoiningUserModel,
        ObjectiveEvaluator,
        OptimisationResult,
        Strategy,
        brute_force,
        continuous_local_search,
        exhaustive_discrete,
        greedy_fixed_funds,
    )
    from .equilibrium import NetworkGameModel, check_nash
    from .simulation import BatchedSimulationEngine, SimulationEngine
    from .scenarios import (
        AlgorithmSpec,
        AttackSpec,
        ChurnSpec,
        EvolutionSpec,
        FeeSpec,
        GrowthSpec,
        Scenario,
        SimulationSpec,
        TopologySpec,
        WorkloadSpec,
        register_algorithm,
        register_attack,
        register_churn,
        register_fee,
        register_growth,
        register_topology,
        register_workload,
    )
    from .scenarios.runner import ScenarioResult, ScenarioRunner
    from .attacks import AttackReport, AttackRunner, AttackStrategy
    from .evolution import EvolutionEngine, EvolutionRunner, Trajectory

__version__ = "1.4.0"

__all__ = [
    "Action",
    "ActionSpace",
    "AlgorithmSpec",
    "AttackReport",
    "AttackRunner",
    "AttackSpec",
    "AttackStrategy",
    "BatchedSimulationEngine",
    "BetweennessArrays",
    "BudgetExceeded",
    "Channel",
    "ChannelGraph",
    "ChannelNotFound",
    "ChurnSpec",
    "DEFAULT_PARAMS",
    "DuplicateChannel",
    "EvolutionEngine",
    "EvolutionRunner",
    "EvolutionSpec",
    "FeeSpec",
    "GrowthSpec",
    "GraphError",
    "GraphView",
    "HtlcError",
    "betweenness_arrays",
    "InsufficientBalance",
    "InvalidParameter",
    "JoiningUserModel",
    "ModelParameters",
    "NetworkGameModel",
    "NodeNotFound",
    "ObjectiveEvaluator",
    "OptimisationResult",
    "ReproError",
    "RoutingError",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SimulationEngine",
    "SimulationError",
    "SimulationSpec",
    "SnapshotFormatError",
    "Strategy",
    "TopologySpec",
    "Trajectory",
    "WorkloadSpec",
    "brute_force",
    "check_nash",
    "continuous_local_search",
    "exhaustive_discrete",
    "greedy_fixed_funds",
    "register_algorithm",
    "register_attack",
    "register_churn",
    "register_fee",
    "register_growth",
    "register_topology",
    "register_workload",
    "__version__",
]

#: Exported name -> the module (relative to this package) that provides it.
_LAZY_EXPORTS = {
    "BudgetExceeded": ".errors",
    "ChannelNotFound": ".errors",
    "DuplicateChannel": ".errors",
    "GraphError": ".errors",
    "HtlcError": ".errors",
    "InsufficientBalance": ".errors",
    "InvalidParameter": ".errors",
    "NodeNotFound": ".errors",
    "ReproError": ".errors",
    "RoutingError": ".errors",
    "SimulationError": ".errors",
    "SnapshotFormatError": ".errors",
    "DEFAULT_PARAMS": ".params",
    "ModelParameters": ".params",
    "BetweennessArrays": ".network",
    "Channel": ".network",
    "ChannelGraph": ".network",
    "GraphView": ".network",
    "betweenness_arrays": ".network",
    "Action": ".core",
    "ActionSpace": ".core",
    "JoiningUserModel": ".core",
    "ObjectiveEvaluator": ".core",
    "OptimisationResult": ".core",
    "Strategy": ".core",
    "brute_force": ".core",
    "continuous_local_search": ".core",
    "exhaustive_discrete": ".core",
    "greedy_fixed_funds": ".core",
    "NetworkGameModel": ".equilibrium",
    "check_nash": ".equilibrium",
    "BatchedSimulationEngine": ".simulation",
    "SimulationEngine": ".simulation",
    "AlgorithmSpec": ".scenarios",
    "AttackSpec": ".scenarios",
    "ChurnSpec": ".scenarios",
    "EvolutionSpec": ".scenarios",
    "FeeSpec": ".scenarios",
    "GrowthSpec": ".scenarios",
    "Scenario": ".scenarios",
    "SimulationSpec": ".scenarios",
    "TopologySpec": ".scenarios",
    "WorkloadSpec": ".scenarios",
    "register_algorithm": ".scenarios",
    "register_attack": ".scenarios",
    "register_churn": ".scenarios",
    "register_fee": ".scenarios",
    "register_growth": ".scenarios",
    "register_topology": ".scenarios",
    "register_workload": ".scenarios",
    "ScenarioResult": ".scenarios.runner",
    "ScenarioRunner": ".scenarios.runner",
    "AttackReport": ".attacks",
    "AttackRunner": ".attacks",
    "AttackStrategy": ".attacks",
    "EvolutionEngine": ".evolution",
    "EvolutionRunner": ".evolution",
    "Trajectory": ".evolution",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(module, __name__), name)
    try:
        return import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
