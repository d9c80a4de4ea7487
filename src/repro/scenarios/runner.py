"""Execute declarative scenarios: the one engine behind CLI and sweeps.

:class:`ScenarioRunner` turns a :class:`~repro.scenarios.specs.Scenario`
into results by resolving each spec against the plugin registries and
driving the existing library layers in the canonical order:

1. **topology** — build the :class:`~repro.network.graph.ChannelGraph`;
2. **algorithm** — add the joining user and run the Section III optimiser;
3. **simulation** — attach the workload and fee, run the discrete-event
   simulator over the configured horizon.

``run`` returns a :class:`ScenarioResult` carrying both the live objects
(graph, optimisation result, metrics) and a flat, JSON/pickle-friendly
``row`` of headline numbers. ``run_sweep`` evaluates a parameter grid of
scenario overrides — serially or on a ``ProcessPoolExecutor`` — with
deterministic per-point seeds, so both executors produce identical rows.

Importing this module imports the builtin provider modules, which
self-register their plugins (see :mod:`repro.scenarios.registry`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

# Imported for the side effect of registering the builtin plugins.
from ..attacks import strategies as _attack_strategies  # noqa: F401  (jamming, ...)
from ..core import algorithms as _algorithms  # noqa: F401  (greedy, ...)
from ..evolution import churn as _churn  # noqa: F401  (uniform, ...)
from ..evolution import growth as _growth  # noqa: F401  (poisson, ...)
from ..core.algorithms.common import OptimisationResult
from ..core.utility import JoiningUserModel
from ..determinism import ordered_sum
from ..equilibrium import topologies  # noqa: F401  (star, path, circle, ...)
from ..errors import ScenarioError
from ..network.graph import ChannelGraph
from ..network.views import GraphView
from ..obs import ObsSession, attach_telemetry, default_session
from ..params import ModelParameters
from ..simulation.metrics import SimulationMetrics
from ..snapshots import io as _snapshot_io  # noqa: F401  (topology: file)
from ..snapshots import synthetic  # noqa: F401  (topologies: ba, ...)
from ..transactions import workload as _workloads  # noqa: F401  (poisson)
from .factory import build_simulation_engine, build_topology, build_workload
from .grid import derive_seed, evaluate_grid
from .registry import ALGORITHMS
from .specs import Scenario, SimulationSpec

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids cycles
    from ..attacks.report import AttackReport
    from ..evolution.trajectory import Trajectory
    from ..service.store import ResultStore

#: Version stamp of the ``ScenarioResult.to_dict`` document layout.
RESULT_SCHEMA_VERSION = 1

__all__ = [
    "ScenarioResult",
    "ScenarioRunner",
    "resolve_sweep_point",
]


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced.

    Attributes:
        scenario: the spec that was executed (with the seed actually used).
        row: flat mapping of headline numbers — plain JSON/pickle types
            only, so rows survive process boundaries and concatenate into
            sweep tables.
        graph: the (possibly mutated) channel graph.
        optimisation: present when the scenario had an ``algorithm``.
        metrics: present when the scenario had a ``simulation`` (under an
            ``attack``, these are the honest metrics of the attacked run).
        attack: the :class:`~repro.attacks.report.AttackReport` when the
            scenario had an ``attack`` section.
        baseline_metrics: the honest-baseline metrics of an attack run.
    """

    scenario: Scenario
    row: Dict[str, Any] = field(default_factory=dict)
    graph: Optional[ChannelGraph] = None
    optimisation: Optional[OptimisationResult] = None
    metrics: Optional[SimulationMetrics] = None
    #: Present when the scenario had an ``attack``: the damage accounting,
    #: the untouched baseline metrics (``metrics`` then holds the honest
    #: metrics of the *attacked* run).
    attack: Optional["AttackReport"] = None
    baseline_metrics: Optional[SimulationMetrics] = None
    #: Present when the scenario had an ``evolution`` stage: the full
    #: per-epoch trajectory (``graph`` then holds the evolved graph).
    evolution: Optional["Trajectory"] = None

    def view(self, directed: bool = True, reduced: float = 0.0) -> GraphView:
        """An immutable CSR snapshot of the (post-run) result graph.

        Downstream analysis can consume the array-form state directly —
        ``indptr``/``indices`` adjacency, per-entry balances/capacities —
        without materialising a networkx graph.

        Raises:
            ScenarioError: when the scenario produced no graph.
        """
        if self.graph is None:
            raise ScenarioError("scenario produced no graph to view")
        return self.graph.view(directed=directed, reduced=reduced)

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON document of everything the run produced.

        The graph serialises as a describegraph snapshot (node ids
        coerced to strings, the snapshot layer's convention), metrics and
        reports through their own schema-versioned ``to_dict`` forms.
        The document is the store payload of the scenario service:
        ``to_dict(from_dict(doc)) == doc`` holds for every stored doc,
        which is what the byte-identical cache-hit guarantee rests on.
        """
        metrics = self.metrics.to_dict() if self.metrics is not None else None
        baseline = (
            self.baseline_metrics.to_dict()
            if self.baseline_metrics is not None else None
        )
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scenario": self.scenario.to_dict(),
            "row": _plain(self.row),
            "graph": (
                _snapshot_io.to_describegraph(self.graph)
                if self.graph is not None else None
            ),
            "optimisation": (
                self.optimisation.to_dict()
                if self.optimisation is not None else None
            ),
            "metrics": metrics,
            "attack": self.attack.to_dict() if self.attack is not None else None,
            "baseline_metrics": baseline,
            "evolution": (
                self.evolution.to_dict() if self.evolution is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from a :meth:`to_dict` document."""
        from ..attacks.report import AttackReport
        from ..evolution.trajectory import Trajectory

        if not isinstance(document, Mapping):
            raise ScenarioError(
                f"ScenarioResult document must be a mapping, "
                f"got {type(document).__name__}"
            )
        version = document.get("schema_version", RESULT_SCHEMA_VERSION)
        if version != RESULT_SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported ScenarioResult schema_version {version!r}"
            )

        def section(key: str, parse: Callable[[Any], Any]) -> Any:
            raw = document.get(key)
            return None if raw is None else parse(raw)

        return cls(
            scenario=Scenario.from_dict(document["scenario"]),
            row=dict(document.get("row", {})),
            graph=section("graph", _snapshot_io.from_describegraph),
            optimisation=section("optimisation", OptimisationResult.from_dict),
            metrics=section("metrics", SimulationMetrics.from_dict),
            attack=section("attack", AttackReport.from_dict),
            baseline_metrics=section(
                "baseline_metrics", SimulationMetrics.from_dict
            ),
            evolution=section("evolution", Trajectory.from_dict),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid result JSON: {exc}") from exc
        return cls.from_dict(document)

    def summary(self) -> str:
        """One-line human-readable description of the headline numbers."""
        parts = [f"[{self.scenario.name}]"]
        if self.optimisation is not None:
            parts.append(self.optimisation.summary())
        if self.metrics is not None:
            parts.append(self.metrics.summary())
        if self.evolution is not None:
            parts.append(
                f"evolved {self.evolution.epochs_run} epochs "
                f"(converged={self.evolution.converged}, "
                f"final={self.evolution.final_topology})"
            )
        if len(parts) == 1 and self.graph is not None:
            parts.append(
                f"{len(self.graph)} nodes, {self.graph.num_channels()} channels"
            )
        return " ".join(parts)


class ScenarioRunner:
    """Executes scenarios and scenario sweeps.

    The runner is stateless between calls; every ``run`` builds a fresh
    graph from the spec, so repeated runs (and parallel sweep points) are
    independent and reproducible from the scenario seed alone.

    ``obs`` is the run's instrumentation session (phases, counters,
    traces); it defaults to the process session, which is disabled — and
    therefore free — unless ``REPRO_OBS`` is set. Instrumentation never
    influences results: obs-on and obs-off runs are bit-identical.
    """

    def __init__(self, obs: Optional[ObsSession] = None) -> None:
        self._obs = obs if obs is not None else default_session()

    def run(self, scenario: Scenario) -> ScenarioResult:
        """Execute every stage the scenario declares."""
        obs = self._obs
        row: Dict[str, Any] = {
            "scenario": scenario.name,
            "seed": scenario.seed,
        }
        if scenario.attack is not None:
            # The attack stage subsumes the simulation stage — and builds
            # its own baseline/attacked graph pair, so don't build a
            # third topology here that would only be thrown away.
            from ..attacks.runner import AttackRunner

            outcome = AttackRunner(obs=obs).run(scenario)
            result = ScenarioResult(
                scenario=scenario,
                row=row,
                graph=outcome.graph,
                metrics=outcome.attacked_metrics,
                baseline_metrics=outcome.baseline_metrics,
                attack=outcome.report,
            )
            row.update(nodes=len(outcome.graph),
                       channels=outcome.graph.num_channels())
            self._simulation_columns(row, outcome.attacked_metrics)
            row.update(outcome.report.to_row())
            return self._finalize(result)
        if scenario.evolution is not None:
            # The evolution stage owns topology construction too: its
            # engine mutates the graph across epochs, so the result's
            # graph is the *evolved* network, not the spec's topology.
            from ..evolution.runner import EvolutionRunner

            outcome = EvolutionRunner(obs=obs).run(scenario)
            result = ScenarioResult(
                scenario=scenario,
                row=row,
                graph=outcome.graph,
                evolution=outcome.trajectory,
            )
            row.update(nodes=len(outcome.graph),
                       channels=outcome.graph.num_channels())
            row.update(outcome.trajectory.row())
            return self._finalize(result)
        with obs.phase("topology"):
            graph = build_topology(scenario.topology, seed=scenario.seed)
        row.update(nodes=len(graph), channels=graph.num_channels())
        result = ScenarioResult(scenario=scenario, row=row, graph=graph)
        if scenario.algorithm is not None:
            with obs.phase("algorithm"):
                result.optimisation = self._run_algorithm(scenario, graph)
            opt = result.optimisation
            row.update(
                algorithm=opt.algorithm,
                objective=opt.objective_value,
                utility=opt.utility,
                strategy_channels=len(opt.strategy),
                evaluations=opt.evaluations,
            )
        if scenario.simulation is not None:
            result.metrics = self._run_simulation(scenario, graph)
            self._simulation_columns(row, result.metrics)
        return self._finalize(result)

    def _finalize(self, result: ScenarioResult) -> ScenarioResult:
        """Attach the run's telemetry to the result and its artifacts.

        The attachment is a side channel (``telemetry_of`` reads it back);
        the artifacts' ``to_dict`` documents — and therefore content
        hashes and store payloads — are untouched.
        """
        obs = self._obs
        if not obs.enabled:
            return result
        telemetry = obs.build_telemetry()
        attach_telemetry(result, telemetry)
        for artifact in (result.metrics, result.baseline_metrics,
                         result.attack, result.evolution):
            if artifact is not None:
                attach_telemetry(artifact, telemetry)
        return result

    @staticmethod
    def _simulation_columns(row: Dict[str, Any], metrics: SimulationMetrics) -> None:
        row.update(
            attempted=metrics.attempted,
            succeeded=metrics.succeeded,
            failed=metrics.failed,
            success_rate=metrics.success_rate,
            volume_delivered=metrics.volume_delivered,
            total_revenue=ordered_sum(metrics.revenue.values()),
            horizon=metrics.horizon,
        )

    def _run_algorithm(
        self, scenario: Scenario, graph: ChannelGraph
    ) -> OptimisationResult:
        spec = scenario.algorithm
        assert spec is not None
        algorithm = ALGORITHMS.get(spec.kind)
        try:
            params = ModelParameters(**spec.model)
        except TypeError as exc:
            raise ScenarioError(
                f"invalid AlgorithmSpec.model overrides {spec.model!r}: {exc}"
            ) from exc
        model = JoiningUserModel(graph, spec.user, params)
        try:
            return algorithm(model, **spec.params)
        except TypeError as exc:
            raise ScenarioError(
                f"algorithm {spec.kind!r} rejected params "
                f"{spec.params!r}: {exc}"
            ) from exc

    def _run_simulation(
        self, scenario: Scenario, graph: ChannelGraph
    ) -> SimulationMetrics:
        sim: SimulationSpec = scenario.simulation  # type: ignore[assignment]
        obs = self._obs
        with obs.phase("workload"):
            workload = build_workload(scenario, graph)
        engine = build_simulation_engine(scenario, graph, obs=obs)
        with obs.phase("simulate"):
            return engine.run_trace(list(workload.generate(sim.horizon)))

    def run_sweep(
        self,
        scenario: Scenario,
        grid: Mapping[str, Sequence[Any]],
        executor: str = "serial",
        max_workers: Optional[int] = None,
        progress: Optional[Callable[[int, Dict[str, Any]], None]] = None,
        cache: Optional[Union["ResultStore", str, Path]] = None,
    ) -> List[Dict[str, Any]]:
        """Evaluate ``scenario`` across a grid of dotted-path overrides.

        Each grid key is a :meth:`Scenario.with_overrides` path (e.g.
        ``"topology.params.n"``, ``"algorithm.params.budget"``); each grid
        point is applied to a copy of the base scenario, which then runs
        with seed ``derive_seed(scenario.seed, index)`` — unless the grid
        itself sweeps ``"seed"``, which wins (and the degenerate empty
        grid keeps the scenario's own seed, so a one-row sweep agrees
        with ``run``). Rows merge the point's
        parameters with the scenario's result row and are returned in grid
        order for both executors, so ``executor="process"`` is a drop-in
        speedup for ``executor="serial"``.

        With ``cache`` set, every point is content-addressed through the
        result store (:mod:`repro.service.store`): a point whose resolved
        scenario hash is already stored is **not executed** — its row
        comes from the stored result document — and every computed point
        is written back. Rows are identical to the uncached path either
        way (modulo JSON number normalisation on cache hits), and the
        store's atomic writes make ``executor="process"`` safe to share
        one cache directory across workers.

        Args:
            scenario: the base scenario.
            grid: override path -> values.
            executor: ``"serial"`` or ``"process"``.
            max_workers: process-pool size (``"process"`` only).
            progress: optional ``(index, point)`` callback.
            cache: a :class:`~repro.service.store.ResultStore`, a store
                path, or ``None`` (no caching).
        """
        if cache is None:
            evaluate = partial(_evaluate_sweep_point, scenario.to_dict())
        else:
            from ..service.store import ResultStore

            store = ResultStore.open(cache)
            # Pass the store by path, not by object: each worker process
            # re-opens it, and atomic tmp+rename writes keep concurrent
            # writers of one directory safe.
            evaluate = partial(
                _evaluate_sweep_point_cached,
                scenario.to_dict(),
                str(store.root),
            )
        return evaluate_grid(
            grid,
            evaluate,
            executor=executor,
            max_workers=max_workers,
            progress=progress,
        )


def resolve_sweep_point(
    scenario_doc: Mapping[str, Any], index: int, point: Mapping[str, Any]
) -> Scenario:
    """The exact scenario grid point ``index`` executes.

    Shared by every sweep driver — the in-process executors, the
    cache-aware path, and the ``repro serve`` daemon's ``sweep``
    command — so all of them agree on the resolved spec and therefore on
    its content hash.
    """
    base = Scenario.from_dict(scenario_doc)
    overrides = dict(point)
    if point:
        # Per-point seeds decorrelate the grid's RNG streams; the
        # degenerate empty grid keeps the scenario's own seed so a
        # one-row sweep reproduces `run-scenario` on the same file.
        overrides.setdefault("seed", derive_seed(base.seed, index))
    return base.with_overrides(overrides)


def _evaluate_sweep_point(
    scenario_doc: Dict[str, Any], index: int, point: Dict[str, Any]
) -> Dict[str, Any]:
    """Top-level (hence picklable) sweep-point evaluator."""
    return ScenarioRunner().run(resolve_sweep_point(scenario_doc, index, point)).row


def _evaluate_sweep_point_cached(
    scenario_doc: Dict[str, Any],
    store_root: str,
    index: int,
    point: Dict[str, Any],
) -> Dict[str, Any]:
    """Cache-aware sweep-point evaluator (top-level, picklable).

    Store hit: the row comes from the stored result document, zero
    execution. Miss: run, write the full result document back, return
    the freshly computed row.
    """
    from ..service.store import ResultStore

    resolved = resolve_sweep_point(scenario_doc, index, point)
    store = ResultStore(store_root)
    key = resolved.content_hash()
    payload = store.get(key)
    if payload is not None:
        return dict(payload["row"])
    result = ScenarioRunner().run(resolved)
    # Return the *normalised* row put() hands back (sorted keys, ints
    # collapsed), so miss and hit responses are byte-identical.
    stored = store.put(key, result.to_dict())
    return dict(stored["row"])


def _plain(value: Any) -> Any:
    """Coerce ``value`` to plain JSON types (numpy scalars included)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)
