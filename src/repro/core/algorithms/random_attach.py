"""Random attachment — the null-model join, with no optimisation.

A newcomer opens ``k`` channels to uniformly sampled peers without any
utility evaluation: the classic random-attachment baseline, and the cheap
per-arrival join of large evolution runs (:mod:`repro.evolution.growth`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import InvalidParameter
from ..strategy import Action, Strategy
from ..utility import JoiningUserModel
from .common import OptimisationResult

__all__ = ["random_attach"]


def random_attach(
    model: JoiningUserModel,
    k: int = 2,
    lock: float = 1.0,
    seed: Optional[int] = None,
) -> OptimisationResult:
    """Join by attaching to ``k`` uniformly random peers (no optimisation).

    Satisfies the :class:`JoinAlgorithm` protocol so it is usable from
    any ``AlgorithmSpec``/``GrowthSpec``; the reported utility is still
    the model's true utility of the sampled strategy, so random
    attachment stays comparable to the optimisers in sweep tables.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    if lock < 0:
        raise InvalidParameter(f"lock must be >= 0, got {lock}")
    rng = np.random.default_rng(seed)
    peers = sorted(model.base_graph.nodes, key=str)
    count = min(k, len(peers))
    chosen = rng.choice(len(peers), size=count, replace=False)
    strategy = Strategy(
        [Action(peers[i], lock) for i in sorted(chosen)]
    )
    utility = model.utility(strategy)
    return OptimisationResult(
        algorithm="random-attach",
        strategy=strategy,
        objective_value=utility,
        utility=utility,
        evaluations=1,
        details={"k": count, "lock": lock},
    )
