"""String-keyed plugin registries behind the declarative scenario layer.

A :class:`Scenario <repro.scenarios.specs.Scenario>` names its pieces by
string keys — ``TopologySpec(kind="ba")``, ``AlgorithmSpec(kind="greedy")``
— and the registries here resolve those keys to the callables that build
them. Provider modules self-register at import time::

    from repro.scenarios.registry import register_topology

    @register_topology("ba")
    def barabasi_albert_snapshot(n, ...):
        ...

This module is a dependency leaf (it imports nothing from the library but
:mod:`repro.errors`), so any provider module may import it without creating
an import cycle. Each registry below names the modules that provide its
builtin plugins and imports them on its first read (``get``, ``in``,
iteration, ``len``): a greedy join loads the topology, algorithm and
workload providers, never the attack or evolution ones. A registration
from outside those modules loads them first, so a plugin that reuses a
builtin key still collides.

Plugin calling conventions:

* **topology** — ``builder(**params) -> ChannelGraph``; builders that
  accept a ``seed`` keyword receive the scenario seed automatically.
* **algorithm** — the :class:`JoinAlgorithm` protocol:
  ``algorithm(model, **params) -> OptimisationResult``.
* **fee** — ``builder(**params) -> FeeFunction``.
* **workload** — ``builder(graph, seed=..., **params) -> PoissonWorkload``
  (or any object with the workload's ``generate`` interface).
"""

from __future__ import annotations

import threading
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    runtime_checkable,
)

from ..errors import ScenarioError, UnknownPluginError

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids cycles
    from ..core.algorithms.common import OptimisationResult
    from ..core.utility import JoiningUserModel

__all__ = [
    "ALGORITHMS",
    "ATTACKS",
    "CHURN",
    "FEES",
    "GROWTH",
    "JoinAlgorithm",
    "Registry",
    "TOPOLOGIES",
    "WORKLOADS",
    "register_algorithm",
    "register_attack",
    "register_churn",
    "register_fee",
    "register_growth",
    "register_topology",
    "register_workload",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Held while a registry imports its providers, and around the imports a
#: scenario stage makes when it first runs (:mod:`repro.scenarios.runner`,
#: :mod:`repro.scenarios.factory`). Two threads that import a package and
#: one of its submodules at the same moment can deadlock, so these imports
#: run one thread at a time.
IMPORT_LOCK = threading.RLock()


@runtime_checkable
class JoinAlgorithm(Protocol):
    """Common protocol of the Section III joining-strategy optimisers.

    Every registered algorithm takes the joining-user model as its first
    positional argument plus algorithm-specific keyword arguments (budget,
    lock, granularity, ...), and returns an
    :class:`~repro.core.algorithms.common.OptimisationResult`.
    """

    def __call__(
        self, model: "JoiningUserModel", **kwargs: Any
    ) -> "OptimisationResult": ...


class Registry:
    """A named mapping from string keys to plugin callables.

    Args:
        name: human-readable registry name, used in error messages
            (``"topology"``, ``"algorithm"``, ...).
        providers: dotted names of the modules (or packages) whose import
            registers the builtin plugins; they load on the first read.
    """

    def __init__(self, name: str, providers: Sequence[str] = ()) -> None:
        self.name = name
        self._plugins: Dict[str, Callable[..., Any]] = {}
        self._providers: Tuple[str, ...] = tuple(providers)

    def _load_providers(self) -> None:
        """Import the provider modules once.

        ``_providers`` empties only after every import returned, so a
        thread that reads meanwhile waits on :data:`IMPORT_LOCK` until
        the registry is complete.
        """
        if self._providers:
            with IMPORT_LOCK:
                for module in self._providers:
                    import_module(module)
                self._providers = ()

    def _is_builtin(self, fn: Callable[..., Any]) -> bool:
        """Whether ``fn`` comes from a provider module still to load."""
        module = getattr(fn, "__module__", None) or ""
        return any(
            module == provider or module.startswith(provider + ".")
            for provider in self._providers
        )

    def register(self, key: str, *aliases: str) -> Callable[[F], F]:
        """Decorator: register the wrapped callable under ``key``.

        Registration is idempotent for the same callable (so re-imports
        are harmless) but re-registering a key to a *different* callable
        raises, catching accidental collisions between plugins.
        """

        def decorator(fn: F) -> F:
            if not self._is_builtin(fn):
                self._load_providers()
            for k in (key, *aliases):
                existing = self._plugins.get(k)
                if existing is not None and existing is not fn:
                    raise ScenarioError(
                        f"{self.name} key {k!r} already registered "
                        f"to {existing!r}"
                    )
                self._plugins[k] = fn
            return fn

        return decorator

    def get(self, key: str) -> Callable[..., Any]:
        """Resolve ``key``, raising :class:`UnknownPluginError` if absent."""
        self._load_providers()
        try:
            return self._plugins[key]
        except KeyError:
            raise UnknownPluginError(self.name, key, self._plugins) from None

    def __contains__(self, key: str) -> bool:
        self._load_providers()
        return key in self._plugins

    def __iter__(self) -> Iterator[str]:
        self._load_providers()
        return iter(sorted(self._plugins))

    def __len__(self) -> int:
        self._load_providers()
        return len(self._plugins)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.name!r}, keys={list(self)})"


#: Topology builders: key -> ``(**params) -> ChannelGraph``.
TOPOLOGIES = Registry("topology", (
    "repro.snapshots.synthetic",  # ba, erdos-renyi, core-periphery
    "repro.snapshots.io",  # file
    "repro.equilibrium.topologies",  # star, path, circle, complete
))
#: Joining-strategy optimisers satisfying :class:`JoinAlgorithm`.
ALGORITHMS = Registry("algorithm", ("repro.core.algorithms",))
#: Fee-function builders: key -> ``(**params) -> FeeFunction``.
FEES = Registry("fee", ("repro.network.fees",))
#: Workload builders: key -> ``(graph, seed=..., **params) -> workload``.
WORKLOADS = Registry("workload", ("repro.transactions.workload",))
#: Attack-strategy builders: key -> ``(**params) -> AttackStrategy``
#: (see :mod:`repro.attacks.strategies` for the protocol and builtins).
ATTACKS = Registry("attack", ("repro.attacks.strategies",))
#: Arrival-process builders for network evolution:
#: key -> ``(**params) -> ArrivalProcess``
#: (see :mod:`repro.evolution.growth` for the protocol and builtins).
GROWTH = Registry("growth", ("repro.evolution.growth",))
#: Departure-process builders for network evolution:
#: key -> ``(**params) -> ChurnProcess``
#: (see :mod:`repro.evolution.churn`).
CHURN = Registry("churn", ("repro.evolution.churn",))

register_topology = TOPOLOGIES.register
register_algorithm = ALGORITHMS.register
register_fee = FEES.register
register_workload = WORKLOADS.register
register_attack = ATTACKS.register
register_growth = GROWTH.register
register_churn = CHURN.register
