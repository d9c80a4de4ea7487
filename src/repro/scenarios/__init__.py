"""Declarative scenario layer: the one public way to describe experiments.

Describe *what* to run as frozen-dataclass specs (or plain JSON), then let
:class:`ScenarioRunner` resolve the string keys against the plugin
registries and drive the library::

    from repro.scenarios import (
        AlgorithmSpec, Scenario, ScenarioRunner, TopologySpec,
    )

    scenario = Scenario(
        topology=TopologySpec("ba", {"n": 50}),
        algorithm=AlgorithmSpec("greedy", {"budget": 10.0, "lock": 1.0}),
        seed=7,
    )
    result = ScenarioRunner().run(scenario)
    print(result.optimisation.summary())

Sweeps evaluate a grid of dotted-path overrides, optionally across worker
processes::

    rows = ScenarioRunner().run_sweep(
        scenario,
        {"topology.params.n": [20, 50, 100]},
        executor="process",
    )

New topologies/algorithms/fees/workloads plug in via the
``register_*`` decorators — see :mod:`repro.scenarios.registry`.

Import-order note: this ``__init__`` eagerly exposes only the dependency
leaves (specs, registries, grid machinery) so provider modules can import
``repro.scenarios.registry`` at their own import time without a cycle; the
runner and factories load lazily on first attribute access (PEP 562), and
the registries import their providers on first read.
"""

from typing import TYPE_CHECKING

from .grid import derive_seed, evaluate_grid, grid_points
from .registry import (
    ALGORITHMS,
    ATTACKS,
    CHURN,
    FEES,
    GROWTH,
    JoinAlgorithm,
    Registry,
    TOPOLOGIES,
    WORKLOADS,
    register_algorithm,
    register_attack,
    register_churn,
    register_fee,
    register_growth,
    register_topology,
    register_workload,
)
from .specs import (
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
)

if TYPE_CHECKING:  # pragma: no cover - lazy at runtime, eager for typing
    from .factory import build_churn, build_growth, build_topology
    from .runner import ScenarioResult, ScenarioRunner

__all__ = [
    "ALGORITHMS",
    "ATTACKS",
    "AlgorithmSpec",
    "AttackSpec",
    "CHURN",
    "ChurnSpec",
    "EvolutionSpec",
    "FEES",
    "FeeSpec",
    "GROWTH",
    "GrowthSpec",
    "JoinAlgorithm",
    "Registry",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SimulationSpec",
    "TOPOLOGIES",
    "TopologySpec",
    "WORKLOADS",
    "WorkloadSpec",
    "build_churn",
    "build_growth",
    "build_topology",
    "derive_seed",
    "evaluate_grid",
    "grid_points",
    "register_algorithm",
    "register_attack",
    "register_churn",
    "register_fee",
    "register_growth",
    "register_topology",
    "register_workload",
]

_LAZY_EXPORTS = {
    "ScenarioResult": "runner",
    "ScenarioRunner": "runner",
    "build_churn": "factory",
    "build_growth": "factory",
    "build_topology": "factory",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
