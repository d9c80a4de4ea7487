"""Declarative, JSON-round-trippable experiment specifications.

Every experiment in the paper has the same shape: build a topology, attach
a workload and a fee model, run an optimisation algorithm and/or the
discrete-event simulator, collect result rows. The frozen dataclasses here
describe that shape as *data*:

* :class:`TopologySpec` — which graph to build (``"ba"``, ``"star"``,
  ``"file"``, ...) and with what parameters;
* :class:`WorkloadSpec` — the payment-intent process;
* :class:`FeeSpec` — the global fee function;
* :class:`AlgorithmSpec` — the joining-strategy optimiser, the joining
  user's id, and :class:`~repro.params.ModelParameters` overrides;
* :class:`SimulationSpec` — discrete-event simulator settings;
* :class:`Scenario` — the composition of the above plus a name and seed.

All specs round-trip losslessly through plain JSON types::

    Scenario.from_dict(scenario.to_dict()) == scenario

``params`` mappings are normalised to JSON form at construction time
(tuples become lists, keys become strings), so equality after a JSON
round-trip holds by construction; non-JSON-serialisable values raise
:class:`~repro.errors.ScenarioError` immediately rather than at save time.

The string ``kind`` keys are resolved against the plugin registries of
:mod:`repro.scenarios.registry` by the runner — specs themselves never
import the heavyweight provider modules, so they stay cheap to construct,
hash-free to compare, and trivially picklable for process-parallel sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from ..errors import ScenarioError

__all__ = [
    "AlgorithmSpec",
    "AttackSpec",
    "ChurnSpec",
    "EvolutionSpec",
    "FeeSpec",
    "GrowthSpec",
    "Scenario",
    "SimulationSpec",
    "TopologySpec",
    "WorkloadSpec",
]

#: ``to_dict`` documents carry this so future layouts can be migrated.
#: v2 added the two-sided fee fields (``FeeSpec.upfront_base`` /
#: ``upfront_rate``); v1 documents migrate automatically (both default
#: to 0.0, reproducing the success-only behaviour bit for bit).
SCHEMA_VERSION = 2

#: Document versions :meth:`Scenario.from_dict` accepts.
_READABLE_SCHEMA_VERSIONS = (1, 2)


def _jsonify(value: Any, what: str) -> Any:
    """Normalise ``value`` to plain JSON types (dicts/lists/scalars)."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what} must be JSON-serialisable: {exc}") from exc


def _require_mapping(document: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(document, Mapping):
        raise ScenarioError(
            f"{what} must be a mapping, got {type(document).__name__}"
        )
    return document


@dataclass(frozen=True)
class _PluginSpec:
    """Common shape of the plugin-backed specs: a registry key + params.

    Attributes:
        kind: key into the corresponding plugin registry.
        params: keyword arguments passed to the plugin builder; must hold
            only JSON types (normalised on construction).
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise ScenarioError(
                f"{type(self).__name__}.kind must be a non-empty string, "
                f"got {self.kind!r}"
            )
        name = f"{type(self).__name__}.params"
        params = _jsonify(dict(_require_mapping(self.params, name)), name)
        object.__setattr__(self, "params", params)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "_PluginSpec":
        document = _require_mapping(document, cls.__name__)
        unknown = set(document) - {"kind", "params"}
        if unknown:
            raise ScenarioError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        if "kind" not in document:
            raise ScenarioError(f"{cls.__name__} requires a 'kind' field")
        return cls(kind=document["kind"], params=document.get("params", {}))


@dataclass(frozen=True)
class TopologySpec(_PluginSpec):
    """Which channel graph to build.

    Builtin kinds: ``"ba"``, ``"core-periphery"``, ``"erdos-renyi"``
    (synthetic snapshots), ``"star"``, ``"path"``, ``"circle"``,
    ``"complete"`` (Section IV topologies), and ``"file"`` (a
    describegraph JSON snapshot; params: ``path``).
    """


@dataclass(frozen=True)
class WorkloadSpec(_PluginSpec):
    """The payment-intent process driven through the simulator.

    Builtin kind ``"poisson"`` (params: ``rate`` or per-node ``rates``,
    ``distribution`` = ``"zipf"``/``"uniform"``, ``zipf_s``, and a nested
    ``sizes`` document, e.g. ``{"kind": "truncated-exponential",
    "scale": 0.5, "high": 5.0}``).
    """


@dataclass(frozen=True)
class FeeSpec(_PluginSpec):
    """The global fee function ``F`` of Section II-A.

    Builtin kinds: ``"constant"`` (params: ``fee``), ``"linear"``
    (params: ``base``, ``rate``), ``"piecewise"`` (params: ``knots`` as a
    list of ``[amount, fee]`` pairs). ``kind``/``params`` describe the
    *success* side of the fee, charged when a payment settles.

    Attributes:
        upfront_base: flat fee charged per *attempted* HTLC hop,
            settle or not (the unjamming countermeasure). 0 disables it.
        upfront_rate: proportional per-attempt fee on the hop amount.

    A non-zero upfront side makes the factory build a two-sided
    :class:`~repro.network.fees.FeePolicy` around the success fee.
    Schema v1 documents carry neither field; both default to 0.0, which
    reproduces the historical success-only behaviour exactly.
    """

    upfront_base: float = 0.0
    upfront_rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("upfront_base", "upfront_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(
                    f"FeeSpec.{name} must be a number, got {value!r}"
                )
            if value < 0:
                raise ScenarioError(
                    f"FeeSpec.{name} must be >= 0, got {value}"
                )

    def to_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        doc["upfront_base"] = self.upfront_base
        doc["upfront_rate"] = self.upfront_rate
        return doc

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FeeSpec":
        document = _require_mapping(document, cls.__name__)
        unknown = set(document) - {
            "kind", "params", "upfront_base", "upfront_rate",
        }
        if unknown:
            raise ScenarioError(
                f"unknown FeeSpec fields: {sorted(unknown)}"
            )
        if "kind" not in document:
            raise ScenarioError("FeeSpec requires a 'kind' field")
        return cls(
            kind=document["kind"],
            params=document.get("params", {}),
            upfront_base=document.get("upfront_base", 0.0),
            upfront_rate=document.get("upfront_rate", 0.0),
        )

    @property
    def has_upfront(self) -> bool:
        """Whether this spec describes a two-sided policy."""
        return self.upfront_base > 0 or self.upfront_rate > 0


@dataclass(frozen=True)
class AttackSpec(_PluginSpec):
    """An adversarial traffic stage run against the simulation.

    Builtin kinds (see :mod:`repro.attacks.strategies`):
    ``"slow-jamming"``, ``"liquidity-depletion"``, ``"fee-griefing"``.
    Common params: ``budget`` (attacker capital endowment), ``victim``
    (node id; defaults to the highest-betweenness node), ``amount``,
    ``rate``, ``hold_time``, ``max_concurrent``. The spec-level
    ``slot_cap`` param (applied by the attack runner to both the baseline
    and the attacked graph) sets ``max_accepted_htlcs`` on every channel.
    """


@dataclass(frozen=True)
class GrowthSpec(_PluginSpec):
    """The arrival process of an evolution run.

    Builtin kinds (see :mod:`repro.evolution.growth`): ``"poisson"``
    (params: ``rate`` arrivals per epoch) and ``"fixed"`` (params:
    ``per_epoch``). Both accept ``algorithm`` (a
    :class:`JoinAlgorithm <repro.scenarios.registry.JoinAlgorithm>`
    registry key, default ``"greedy"``), ``params`` for it (e.g.
    ``{"budget": 4.0, "lock": 1.0}``), and ``model`` —
    :class:`~repro.params.ModelParameters` overrides for the joining
    user's utility.
    """


@dataclass(frozen=True)
class ChurnSpec(_PluginSpec):
    """The departure process of an evolution run.

    Builtin kinds (see :mod:`repro.evolution.churn`): ``"uniform"``
    (params: ``rate`` — per-node departure probability per epoch) and
    ``"degree-biased"`` (params: ``rate``, ``bias`` — positive bias
    prefers hubs, negative prefers leaves). Both accept ``min_nodes``
    (departures stop once the network would shrink below it, default 3).
    """


@dataclass(frozen=True)
class EvolutionSpec:
    """Epoch-based network evolution settings (no plugin key).

    Each epoch runs: arrivals (``growth``), departures (``churn``,
    realising closure costs through
    :class:`~repro.network.lifecycle.ChannelLifecycle` at
    ``onchain_fee``), a traffic epoch of ``traffic_horizon`` time units
    on the batched backend, and a best-response phase that sweeps
    ``sample`` nodes (all when ``None``) over the ``mode`` deviation
    family (``"structured"``, ``"exhaustive"``, or ``"sampled"`` with
    ``moves_per_node`` candidates) and applies strictly improving moves
    adding at most ``add_budget`` channels each.

    ``utility`` picks the provider the best-response phase maximises:
    ``"analytic"`` is the Section IV :class:`NetworkGameModel
    <repro.equilibrium.node_utility.NetworkGameModel>` on (``a``, ``b``,
    ``edge_cost``, ``zipf_s``); ``"empirical"`` replays the epoch's
    traffic trace on each candidate graph and scores
    ``revenue - fees_paid - edge_cost * degree``.

    The run stops early once ``patience`` consecutive epochs saw no
    arrival, no departure, and no improving move — provided no
    stochastic growth/churn process remains active (a randomly quiet
    epoch of a live process is not convergence). When
    ``final_nash_check`` is true the trajectory's headline row certifies
    the final graph with a full :func:`check_nash
    <repro.equilibrium.nash.check_nash>` sweep (disable for large
    networks).
    """

    epochs: int = 10
    growth: Optional[GrowthSpec] = None
    churn: Optional[ChurnSpec] = None
    utility: str = "analytic"
    traffic_horizon: float = 20.0
    sample: Optional[int] = None
    mode: str = "structured"
    moves_per_node: int = 8
    tolerance: float = 1e-9
    balance: float = 1.0
    add_budget: Optional[int] = None
    patience: int = 2
    a: float = 1.0
    b: float = 1.0
    edge_cost: float = 1.0
    zipf_s: float = 1.0
    onchain_fee: float = 0.1
    final_nash_check: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.epochs, int) or isinstance(self.epochs, bool) \
                or self.epochs < 1:
            raise ScenarioError(
                f"EvolutionSpec.epochs must be an int >= 1, got {self.epochs!r}"
            )
        for name, spec_cls in (("growth", GrowthSpec), ("churn", ChurnSpec)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, spec_cls):
                raise ScenarioError(
                    f"EvolutionSpec.{name} must be a {spec_cls.__name__} "
                    f"or None, got {type(value).__name__}"
                )
        if self.utility not in ("analytic", "empirical"):
            raise ScenarioError(
                "EvolutionSpec.utility must be 'analytic' or 'empirical', "
                f"got {self.utility!r}"
            )
        if self.mode not in ("structured", "exhaustive", "sampled"):
            raise ScenarioError(
                "EvolutionSpec.mode must be 'structured', 'exhaustive' or "
                f"'sampled', got {self.mode!r}"
            )
        for name in (
            "traffic_horizon", "tolerance", "balance",
            "a", "b", "edge_cost", "zipf_s", "onchain_fee",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(
                    f"EvolutionSpec.{name} must be a number, got {value!r}"
                )
            if value < 0:
                raise ScenarioError(
                    f"EvolutionSpec.{name} must be >= 0, got {value}"
                )
        if self.balance <= 0:
            raise ScenarioError(
                f"EvolutionSpec.balance must be > 0, got {self.balance}"
            )
        for name, minimum in (
            ("sample", 1), ("add_budget", 0), ("moves_per_node", 1),
            ("patience", 1),
        ):
            value = getattr(self, name)
            if value is None and name in ("sample", "add_budget"):
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ScenarioError(
                    f"EvolutionSpec.{name} must be an int >= {minimum}"
                    f"{' or None' if name in ('sample', 'add_budget') else ''}"
                    f", got {value!r}"
                )
        if self.utility == "empirical" and self.traffic_horizon <= 0:
            raise ScenarioError(
                "EvolutionSpec.utility='empirical' needs traffic epochs: "
                "set traffic_horizon > 0"
            )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in ("growth", "churn"):
                doc[spec_field.name] = None if value is None else value.to_dict()
            else:
                doc[spec_field.name] = value
        return doc

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "EvolutionSpec":
        document = _require_mapping(document, "EvolutionSpec")
        known = {f.name for f in fields(cls)}
        unknown = set(document) - known
        if unknown:
            raise ScenarioError(
                f"unknown EvolutionSpec fields: {sorted(unknown)}"
            )
        kwargs = dict(document)
        for key, spec_cls in (("growth", GrowthSpec), ("churn", ChurnSpec)):
            raw = kwargs.get(key)
            if raw is not None:
                kwargs[key] = spec_cls.from_dict(raw)
        return cls(**kwargs)


@dataclass(frozen=True)
class AlgorithmSpec(_PluginSpec):
    """A joining-strategy optimisation run (Section III).

    Attributes:
        kind: algorithm registry key (``"greedy"``, ``"exhaustive"``,
            ``"continuous"``, ``"bruteforce"``).
        params: algorithm keyword arguments (``budget``, ``lock``,
            ``granularity``, ...).
        user: node id under which the joining user is added.
        model: :class:`~repro.params.ModelParameters` overrides applied on
            top of the defaults (e.g. ``{"zipf_s": 2.0}``).
    """

    user: str = "new-user"
    model: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        model = _jsonify(
            dict(_require_mapping(self.model, "AlgorithmSpec.model")),
            "AlgorithmSpec.model",
        )
        object.__setattr__(self, "model", model)

    def to_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        doc["user"] = self.user
        doc["model"] = dict(self.model)
        return doc

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "AlgorithmSpec":
        document = _require_mapping(document, cls.__name__)
        unknown = set(document) - {"kind", "params", "user", "model"}
        if unknown:
            raise ScenarioError(
                f"unknown AlgorithmSpec fields: {sorted(unknown)}"
            )
        if "kind" not in document:
            raise ScenarioError("AlgorithmSpec requires a 'kind' field")
        return cls(
            kind=document["kind"],
            params=document.get("params", {}),
            user=document.get("user", "new-user"),
            model=document.get("model", {}),
        )


@dataclass(frozen=True)
class SimulationSpec:
    """Simulator settings (no plugin key — there is one engine).

    Attributes mirror
    :class:`~repro.simulation.fastpath.BatchedSimulationEngine` and its
    ``schedule_workload`` horizon. ``backend`` is always ``"batched"``:
    documents keep the field, and one naming the ``"event"`` engine,
    which is gone, loads as ``"batched"``. The engine runs
    ``payment_mode`` ``"instant"`` and ``"htlc"``. ``route_rng`` picks
    how path-sampling randomness is derived: ``"stream"`` draws from one
    sequential RNG (the historical behaviour), ``"payment"`` derives an
    independent RNG per payment from ``(seed, payment index)``, so one
    payment's route does not depend on which payments ran before it.
    ``path_selection`` is ``"random"`` (equal-split tie-breaks) or
    ``"first"``. ``fee_forwarding=False`` needs ``payment_mode``
    ``"instant"``: the HTLC router always forwards fees. Every field is
    checked here, when the spec is parsed.
    """

    horizon: float = 100.0
    payment_mode: str = "instant"
    htlc_hold_mean: float = 0.1
    fee_forwarding: bool = True
    path_selection: str = "random"
    backend: str = "batched"
    route_rng: str = "stream"

    def __post_init__(self) -> None:
        if self.backend == "event":
            object.__setattr__(self, "backend", "batched")
        for name in ("horizon", "htlc_hold_mean"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(
                    f"SimulationSpec.{name} must be a number, got {value!r}"
                )
            if value <= 0:
                raise ScenarioError(
                    f"SimulationSpec.{name} must be > 0, got {value}"
                )
        if not isinstance(self.fee_forwarding, bool):
            raise ScenarioError(
                "SimulationSpec.fee_forwarding must be true or false, "
                f"got {self.fee_forwarding!r}"
            )
        for name, choices in (
            ("backend", ("batched",)),
            ("payment_mode", ("instant", "htlc")),
            ("path_selection", ("random", "first")),
            ("route_rng", ("stream", "payment")),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ScenarioError(
                    f"SimulationSpec.{name} must be one of "
                    f"{list(choices)}, got {value!r}"
                )
        if self.payment_mode == "htlc" and not self.fee_forwarding:
            raise ScenarioError(
                "SimulationSpec.fee_forwarding=false is not modelled in "
                "payment_mode 'htlc': the HTLC router always forwards fees"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "horizon": self.horizon,
            "payment_mode": self.payment_mode,
            "htlc_hold_mean": self.htlc_hold_mean,
            "fee_forwarding": self.fee_forwarding,
            "path_selection": self.path_selection,
            "backend": self.backend,
            "route_rng": self.route_rng,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SimulationSpec":
        document = _require_mapping(document, cls.__name__)
        known = {f.name for f in fields(cls)}
        unknown = set(document) - known
        if unknown:
            raise ScenarioError(
                f"unknown SimulationSpec fields: {sorted(unknown)}"
            )
        return cls(**dict(document))


@dataclass(frozen=True)
class Scenario:
    """One fully-described experiment: topology + optional stages.

    A scenario with only a ``topology`` builds a graph; adding an
    ``algorithm`` runs a joining-strategy optimiser on it; adding a
    ``simulation`` (with an optional ``workload`` and ``fee``) drives the
    discrete-event simulator; adding an ``attack`` (requires a
    ``simulation``) runs the adversarial traffic engine, which simulates
    an honest baseline and an attacked run and reports the damage; adding
    an ``evolution`` stage (which embeds its own per-epoch traffic, so it
    excludes the other optional stages) runs the epoch-based network
    evolution engine over the topology. The single ``seed`` feeds every
    stochastic stage, so a scenario is a complete, reproducible
    experiment record.
    """

    topology: TopologySpec
    workload: Optional[WorkloadSpec] = None
    fee: Optional[FeeSpec] = None
    algorithm: Optional[AlgorithmSpec] = None
    simulation: Optional[SimulationSpec] = None
    attack: Optional[AttackSpec] = None
    evolution: Optional[EvolutionSpec] = None
    name: str = "scenario"
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.topology, TopologySpec):
            raise ScenarioError(
                "Scenario.topology must be a TopologySpec, "
                f"got {type(self.topology).__name__}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(f"Scenario.seed must be an int, got {self.seed!r}")
        if self.attack is not None:
            if self.simulation is None:
                raise ScenarioError(
                    "an attack stage requires a simulation stage (the "
                    "honest workload the attacker disrupts)"
                )
            if self.algorithm is not None:
                raise ScenarioError(
                    "attack and algorithm stages cannot be combined: the "
                    "attack runner rebuilds the topology for its "
                    "baseline/attacked pair, which would discard the "
                    "optimiser's joined channels"
                )
        if self.evolution is not None:
            if not isinstance(self.evolution, EvolutionSpec):
                raise ScenarioError(
                    "Scenario.evolution must be an EvolutionSpec, "
                    f"got {type(self.evolution).__name__}"
                )
            if self.simulation is not None:
                raise ScenarioError(
                    "an evolution stage embeds its own per-epoch traffic "
                    "on the batched backend (EvolutionSpec.traffic_horizon)"
                    "; drop the simulation section"
                )
            if self.attack is not None:
                raise ScenarioError(
                    "evolution and attack stages cannot be combined: the "
                    "attack runner needs the event queue and a static "
                    "baseline topology"
                )
            if self.algorithm is not None:
                raise ScenarioError(
                    "evolution and algorithm stages cannot be combined: "
                    "arrivals join through the GrowthSpec's algorithm "
                    "instead"
                )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON document; optional stages are omitted when unset."""
        doc: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "topology": self.topology.to_dict(),
        }
        for key in (
            "workload", "fee", "algorithm", "simulation", "attack",
            "evolution",
        ):
            spec = getattr(self, key)
            if spec is not None:
                doc[key] = spec.to_dict()
        return doc

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Scenario":
        document = _require_mapping(document, "Scenario")
        known = {
            "schema_version", "name", "seed", "topology",
            "workload", "fee", "algorithm", "simulation", "attack",
            "evolution",
        }
        unknown = set(document) - known
        if unknown:
            raise ScenarioError(f"unknown Scenario fields: {sorted(unknown)}")
        version = document.get("schema_version", SCHEMA_VERSION)
        if version not in _READABLE_SCHEMA_VERSIONS:
            raise ScenarioError(
                f"unsupported scenario schema_version {version!r} "
                f"(this library reads versions "
                f"{list(_READABLE_SCHEMA_VERSIONS)})"
            )
        if "topology" not in document:
            raise ScenarioError("Scenario requires a 'topology' section")

        def section(key: str, spec_cls: Any) -> Any:
            raw = document.get(key)
            return None if raw is None else spec_cls.from_dict(raw)

        return cls(
            topology=TopologySpec.from_dict(document["topology"]),
            workload=section("workload", WorkloadSpec),
            fee=section("fee", FeeSpec),
            algorithm=section("algorithm", AlgorithmSpec),
            simulation=section("simulation", SimulationSpec),
            attack=section("attack", AttackSpec),
            evolution=section("evolution", EvolutionSpec),
            name=document.get("name", "scenario"),
            seed=document.get("seed", 0),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def content_hash(self) -> str:
        """Stable sha256 content address of this scenario.

        The digest is taken over the canonical JSON of :meth:`to_dict`
        (sorted keys, normalised numbers) and salted with the spec and
        artifact schema versions, so equal scenarios hash identically
        across processes and machines while any schema change retires
        old addresses cleanly. This is the key of the content-addressed
        result store (:mod:`repro.service`): same hash, same result —
        never recomputed.
        """
        # Local import: repro.service.hashing imports this module's
        # SCHEMA_VERSION at module scope, so the cycle resolves lazily.
        from ..service.hashing import scenario_content_hash

        return scenario_content_hash(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(document)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Scenario":
        """A copy with dotted-path overrides applied.

        Paths address the ``to_dict`` document: ``"seed"``,
        ``"topology.params.n"``, ``"algorithm.params.budget"``,
        ``"simulation.horizon"``, ... Intermediate mappings are created as
        needed, so a sweep can set ``"fee.kind"`` on a scenario that has
        no fee section yet (sibling fields then take their defaults).
        """
        doc = self.to_dict()
        for path, value in overrides.items():
            parts = path.split(".")
            node = doc
            for part in parts[:-1]:
                child = node.get(part)
                if child is None:
                    child = node[part] = {}
                elif not isinstance(child, dict):
                    raise ScenarioError(
                        f"override path {path!r} descends into "
                        f"non-mapping segment {part!r}"
                    )
                node = child
            node[parts[-1]] = value
        return Scenario.from_dict(doc)
