"""Arrival processes: how new nodes enter an evolving network.

A growth plugin (``repro.scenarios.registry.GROWTH``) builds an
:class:`ArrivalProcess`: per epoch it samples how many nodes arrive, and
each arrival joins through a registered
:class:`~repro.scenarios.registry.JoinAlgorithm` — the same Section III
optimisers the ``algorithm`` scenario stage uses (``"greedy"``,
``"exhaustive"``, ...), so an evolution run's newcomers place their
channels exactly like the joining-user experiments do.

For large-scale runs the Section III optimisers are overkill per
arrival; the ``"random-attach"`` algorithm
(:func:`~repro.core.algorithms.random_attach.random_attach`) joins by
opening ``k`` channels to uniformly sampled peers without any utility
evaluation — the classic random-attachment null model, and the cheap
default of the evolution benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Mapping, Optional

import numpy as np

from ..core.algorithms.common import OptimisationResult
from ..core.utility import JoiningUserModel
from ..errors import InvalidParameter, ScenarioError
from ..network.graph import ChannelGraph
from ..params import ModelParameters
from ..scenarios.registry import ALGORITHMS, register_growth

__all__ = [
    "ArrivalProcess",
    "FixedGrowth",
    "PoissonGrowth",
]


class ArrivalProcess:
    """Base arrival process: a count sampler plus the join machinery.

    Args:
        algorithm: :class:`JoinAlgorithm` registry key arrivals join
            with.
        params: keyword arguments for the join algorithm.
        model: :class:`~repro.params.ModelParameters` overrides for the
            joining-user model.
    """

    def __init__(
        self,
        algorithm: str = "greedy",
        params: Optional[Mapping[str, Any]] = None,
        model: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.params: Dict[str, Any] = dict(
            params if params is not None else {"budget": 4.0, "lock": 1.0}
        )
        self.model: Dict[str, Any] = dict(model or {})

    def arrivals(self, rng: np.random.Generator) -> int:
        """How many nodes arrive this epoch."""
        raise NotImplementedError

    def active(self) -> bool:
        """Whether future epochs can still see arrivals.

        The engine's convergence detection only early-stops a run when
        no stochastic process remains active — a randomly quiet epoch
        of a positive-rate process is not convergence.
        """
        return True

    def join(
        self, graph: ChannelGraph, node_id: Hashable, seed: Optional[int] = None
    ) -> OptimisationResult:
        """Run the join algorithm for ``node_id`` and open its channels.

        The chosen strategy is applied to the *live* graph (channels
        funded ``locked``/``locked``, the dual-funded convention of
        :class:`JoiningUserModel`'s default ``peer_deposit="match"``);
        parallel actions to the same peer merge into one channel so the
        evolved graph stays simple — a simulator requirement.
        Algorithms that accept a ``seed`` keyword (e.g.
        ``"random-attach"``) receive the per-arrival seed.
        """
        algorithm = ALGORITHMS.get(self.algorithm)
        try:
            parameters = ModelParameters(**self.model)
        except TypeError as exc:
            raise ScenarioError(
                f"invalid GrowthSpec model overrides {self.model!r}: {exc}"
            ) from exc
        join_model = JoiningUserModel(graph, node_id, parameters)
        params = dict(self.params)
        if seed is not None and _accepts_seed(algorithm):
            params.setdefault("seed", seed)
        try:
            result = algorithm(join_model, **params)
        except TypeError as exc:
            raise ScenarioError(
                f"growth join algorithm {self.algorithm!r} rejected params "
                f"{params!r}: {exc}"
            ) from exc
        locked_by_peer: Dict[Hashable, float] = {}
        for action in result.strategy:
            locked_by_peer[action.peer] = (
                locked_by_peer.get(action.peer, 0.0) + action.locked
            )
        for peer in sorted(locked_by_peer, key=str):
            locked = locked_by_peer[peer]
            graph.add_channel(node_id, peer, locked, locked)
        return result


def _accepts_seed(algorithm: Any) -> bool:
    import inspect

    try:
        signature = inspect.signature(algorithm)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    return any(
        p.name == "seed" or p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )


class PoissonGrowth(ArrivalProcess):
    """Poisson-many arrivals per epoch at mean ``rate``."""

    def __init__(self, rate: float = 1.0, **kwargs: Any) -> None:
        if rate < 0:
            raise InvalidParameter(f"rate must be >= 0, got {rate}")
        super().__init__(**kwargs)
        self.rate = rate

    def arrivals(self, rng: np.random.Generator) -> int:
        if self.rate == 0:
            return 0
        return int(rng.poisson(self.rate))

    def active(self) -> bool:
        return self.rate > 0


class FixedGrowth(ArrivalProcess):
    """Exactly ``per_epoch`` arrivals every epoch."""

    def __init__(self, per_epoch: int = 1, **kwargs: Any) -> None:
        if per_epoch < 0:
            raise InvalidParameter(
                f"per_epoch must be >= 0, got {per_epoch}"
            )
        super().__init__(**kwargs)
        self.per_epoch = per_epoch

    def arrivals(self, rng: np.random.Generator) -> int:  # noqa: ARG002
        return self.per_epoch

    def active(self) -> bool:
        return self.per_epoch > 0


@register_growth("poisson")
def build_poisson_growth(
    rate: float = 1.0,
    algorithm: str = "greedy",
    params: Optional[Mapping[str, Any]] = None,
    model: Optional[Mapping[str, Any]] = None,
) -> PoissonGrowth:
    """The ``"poisson"`` growth plugin."""
    return PoissonGrowth(rate=rate, algorithm=algorithm, params=params, model=model)


@register_growth("fixed")
def build_fixed_growth(
    per_epoch: int = 1,
    algorithm: str = "greedy",
    params: Optional[Mapping[str, Any]] = None,
    model: Optional[Mapping[str, Any]] = None,
) -> FixedGrowth:
    """The ``"fixed"`` growth plugin."""
    return FixedGrowth(
        per_epoch=per_epoch, algorithm=algorithm, params=params, model=model
    )
