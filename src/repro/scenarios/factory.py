"""Spec -> object factories shared by every scenario execution path.

:class:`~repro.scenarios.runner.ScenarioRunner` and
:class:`~repro.attacks.runner.AttackRunner` both turn specs into live
objects — topology graphs, workloads, fee functions, simulation engines.
This module is the single place that resolution (including seed
handling) happens, so the two paths cannot drift apart: an attack
baseline is built by exactly the factory a plain simulation stage uses.

It lives below :mod:`repro.scenarios.runner` in the import graph: the
registries import their provider modules on first read, and the
simulation engine loads inside :func:`build_simulation_engine`, so
:mod:`repro.attacks.runner` can import this module without a cycle and a
join-only scenario never loads the simulator.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import ScenarioError
from .registry import CHURN, FEES, GROWTH, IMPORT_LOCK, TOPOLOGIES, WORKLOADS
from .specs import ChurnSpec, GrowthSpec, Scenario, TopologySpec, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - type hints only, loaded on use
    from ..network.graph import ChannelGraph
    from ..obs import ObsSession
    from ..simulation.fastpath import BatchedSimulationEngine

__all__ = [
    "build_churn",
    "build_fee",
    "build_growth",
    "build_simulation_engine",
    "build_topology",
    "build_workload",
]

def _accepts_keyword(fn: Callable[..., Any], name: str) -> bool:
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == name and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def build_topology(spec: TopologySpec, seed: Optional[int] = None) -> ChannelGraph:
    """Resolve and invoke a topology builder.

    The scenario ``seed`` is forwarded to builders that accept a ``seed``
    keyword (the synthetic snapshot generators) unless the spec's params
    already pin one; deterministic builders (star, path, file, ...) are
    called without it.
    """
    builder = TOPOLOGIES.get(spec.kind)
    params = dict(spec.params)
    if seed is not None and "seed" not in params and _accepts_keyword(builder, "seed"):
        params["seed"] = seed
    return builder(**params)


def build_workload(scenario: Scenario, graph: ChannelGraph) -> Any:
    """Resolve and invoke the scenario's workload builder on ``graph``.

    The scenario seed is injected unless the params pin one, so a given
    (scenario, graph) pair always produces the same transaction stream.
    """
    workload_spec = scenario.workload or WorkloadSpec("poisson")
    workload_builder = WORKLOADS.get(workload_spec.kind)
    workload_params = dict(workload_spec.params)
    workload_params.setdefault("seed", scenario.seed)
    try:
        return workload_builder(graph, **workload_params)
    except TypeError as exc:
        raise ScenarioError(
            f"workload {workload_spec.kind!r} rejected params "
            f"{workload_spec.params!r}: {exc}"
        ) from exc


def build_fee(scenario: Scenario) -> Optional[Any]:
    """Resolve the scenario's fee function (``None`` when unspecified).

    A spec with an upfront side (``upfront_base`` / ``upfront_rate`` > 0)
    resolves to a two-sided :class:`~repro.network.fees.FeePolicy`
    wrapping the success-fee builder's result; a success-only spec
    returns the bare fee function, exactly as before schema v2.
    """
    if scenario.fee is None:
        return None
    fee_builder = FEES.get(scenario.fee.kind)
    try:
        success = fee_builder(**scenario.fee.params)
    except TypeError as exc:
        raise ScenarioError(
            f"fee {scenario.fee.kind!r} rejected params "
            f"{scenario.fee.params!r}: {exc}"
        ) from exc
    if scenario.fee.has_upfront:
        with IMPORT_LOCK:
            from ..network.fees import FeePolicy

        return FeePolicy(
            success=success,
            upfront_base=scenario.fee.upfront_base,
            upfront_rate=scenario.fee.upfront_rate,
        )
    return success


def build_growth(spec: GrowthSpec) -> Any:
    """Resolve and invoke a growth (arrival-process) builder."""
    builder = GROWTH.get(spec.kind)
    try:
        return builder(**spec.params)
    except TypeError as exc:
        raise ScenarioError(
            f"growth {spec.kind!r} rejected params {spec.params!r}: {exc}"
        ) from exc


def build_churn(spec: ChurnSpec) -> Any:
    """Resolve and invoke a churn (departure-process) builder."""
    builder = CHURN.get(spec.kind)
    try:
        return builder(**spec.params)
    except TypeError as exc:
        raise ScenarioError(
            f"churn {spec.kind!r} rejected params {spec.params!r}: {exc}"
        ) from exc


def build_simulation_engine(
    scenario: Scenario,
    graph: ChannelGraph,
    obs: Optional[ObsSession] = None,
) -> BatchedSimulationEngine:
    """The scenario's simulation engine, built from its spec.

    ``obs`` is an execution-time concern, not part of the spec (it would
    perturb content hashes): the caller's instrumentation session is
    threaded through to the engine here.
    """
    with IMPORT_LOCK:
        from ..simulation.fastpath import BatchedSimulationEngine

    sim = scenario.simulation
    if sim is None:
        raise ScenarioError("scenario has no simulation section")
    return BatchedSimulationEngine(
        graph,
        fee=build_fee(scenario),
        fee_forwarding=sim.fee_forwarding,
        path_selection=sim.path_selection,
        seed=scenario.seed,
        payment_mode=sim.payment_mode,
        htlc_hold_mean=sim.htlc_hold_mean,
        route_rng=sim.route_rng,
        obs=obs,
    )
