"""Spec -> object factories shared by every scenario execution path.

:class:`~repro.scenarios.runner.ScenarioRunner` and
:class:`~repro.attacks.runner.AttackRunner` both turn specs into live
objects — topology graphs, workloads, fee functions, simulation engines.
This module is the single place that resolution (including seed
handling) happens, so the two paths cannot drift apart: an attack
baseline is built by exactly the factory a plain simulation stage uses.

It lives below :mod:`repro.scenarios.runner` in the import graph (no
provider imports at module level — they load lazily on first build), so
:mod:`repro.attacks.runner` can import it directly without a cycle.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Optional

from ..errors import ScenarioError
from ..network.graph import ChannelGraph
from ..obs import ObsSession
from ..simulation.fastpath import BatchedSimulationEngine
from .registry import CHURN, FEES, GROWTH, TOPOLOGIES, WORKLOADS
from .specs import ChurnSpec, GrowthSpec, Scenario, TopologySpec, WorkloadSpec

__all__ = [
    "build_churn",
    "build_fee",
    "build_growth",
    "build_simulation_engine",
    "build_topology",
    "build_workload",
]

_providers_loaded = False


def _ensure_providers() -> None:
    """Import the builtin provider modules (idempotent, lazy).

    Providers self-register into the plugin registries at import time;
    deferring the imports to first use keeps this module a dependency
    leaf, breaking the ``attacks.runner -> factory -> attacks.strategies``
    cycle that a module-level import would create.
    """
    global _providers_loaded
    if _providers_loaded:
        return
    _providers_loaded = True
    from ..attacks import strategies  # noqa: F401  (jamming, ...)
    from ..core import algorithms  # noqa: F401  (greedy, ...)
    from ..equilibrium import topologies  # noqa: F401  (star, path, ...)
    from ..evolution import churn  # noqa: F401  (uniform, degree-biased)
    from ..evolution import growth  # noqa: F401  (poisson, fixed, random-attach)
    from ..network import fees  # noqa: F401  (constant, linear, ...)
    from ..snapshots import io  # noqa: F401  (topology: file)
    from ..snapshots import synthetic  # noqa: F401  (ba, ...)
    from ..transactions import workload  # noqa: F401  (poisson)


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
    _ensure_providers()
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
    _ensure_providers()
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
    _ensure_providers()
    fee_builder = FEES.get(scenario.fee.kind)
    try:
        success = fee_builder(**scenario.fee.params)
    except TypeError as exc:
        raise ScenarioError(
            f"fee {scenario.fee.kind!r} rejected params "
            f"{scenario.fee.params!r}: {exc}"
        ) from exc
    if scenario.fee.has_upfront:
        from ..network.fees import FeePolicy

        return FeePolicy(
            success=success,
            upfront_base=scenario.fee.upfront_base,
            upfront_rate=scenario.fee.upfront_rate,
        )
    return success


def build_growth(spec: GrowthSpec) -> Any:
    """Resolve and invoke a growth (arrival-process) builder."""
    _ensure_providers()
    builder = GROWTH.get(spec.kind)
    try:
        return builder(**spec.params)
    except TypeError as exc:
        raise ScenarioError(
            f"growth {spec.kind!r} rejected params {spec.params!r}: {exc}"
        ) from exc


def build_churn(spec: ChurnSpec) -> Any:
    """Resolve and invoke a churn (departure-process) builder."""
    _ensure_providers()
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
