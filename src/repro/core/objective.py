"""Memoised objective evaluation.

The optimisation algorithms of Section III repeatedly evaluate the same
strategies (greedy prefixes, exhaustive-search restarts). This wrapper
caches objective values by strategy and counts true evaluations so the
Thm 4/5 cost statements ("O(M·n) estimations of λ_uv") can be checked
empirically (bench E4/E5).

:meth:`ObjectiveEvaluator.many` scores a whole scan (one greedy step,
one local-search neighbourhood) with one call of the model's batch
kernel :meth:`~repro.core.utility.JoiningUserModel.objectives`. It walks
the list in order as the one-at-a-time loop would: a strategy already
cached, or met earlier in the same list, is a hit; any other is a miss,
takes a cache slot (evicting FIFO under ``max_cache``) and is queued.
The queued misses are then scored in first-seen order. ``evaluations``,
``cache_hits``, the cache contents and the model's ``stats`` therefore
end up as after the loop; a strategy evicted and met again within one
list is queued twice, as the loop would evaluate it twice.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import InvalidParameter
from .strategy import Strategy
from .utility import OBJECTIVE_KINDS, JoiningUserModel

__all__ = ["ObjectiveEvaluator"]


class ObjectiveEvaluator:
    """Caching callable around one of the model's objectives.

    Args:
        model: the joining-user utility model.
        kind: ``"simplified"`` (U'), ``"utility"`` (U) or ``"benefit"`` (U^b).
        max_cache: optional cap on memoised entries (FIFO eviction); the
            default keeps everything, which is fine for the instance sizes
            the algorithms target.
    """

    def __init__(
        self,
        model: JoiningUserModel,
        kind: str = "simplified",
        max_cache: Optional[int] = None,
    ) -> None:
        if kind not in OBJECTIVE_KINDS:
            raise InvalidParameter(f"unknown objective kind {kind!r}")
        if max_cache is not None and max_cache < 1:
            raise InvalidParameter("max_cache must be >= 1")
        self.model = model
        self.kind = kind
        self.max_cache = max_cache
        self._cache: Dict[Strategy, float] = {}
        self.evaluations = 0
        self.cache_hits = 0

    def __call__(self, strategy: Strategy) -> float:
        return self.many([strategy])[0]

    def many(self, strategies: Iterable[Strategy]) -> List[float]:
        """The objective of each strategy, in order (see the module
        docstring for how hits and misses are counted)."""
        cache = self._cache
        values: List[float] = []
        queued: List[Strategy] = []
        # (position in the input, index into queued) of unscored values.
        waiting: List[Tuple[int, int]] = []
        # Queued strategies still cached; their cache value is a placeholder.
        pending: Dict[Strategy, int] = {}
        for position, strategy in enumerate(strategies):
            if strategy in cache:
                self.cache_hits += 1
                index = pending.get(strategy)
                if index is None:
                    values.append(cache[strategy])
                    continue
            else:
                if self.max_cache is not None and len(cache) >= self.max_cache:
                    evicted = next(iter(cache))
                    del cache[evicted]
                    pending.pop(evicted, None)
                index = len(queued)
                queued.append(strategy)
                pending[strategy] = index
                cache[strategy] = math.nan
            values.append(math.nan)
            waiting.append((position, index))
        if not queued:
            return values
        try:
            scored = self.model.objectives(queued, kind=self.kind)
        except BaseException:
            for strategy in pending:
                del cache[strategy]
            raise
        self.evaluations += len(queued)
        for strategy, index in pending.items():
            cache[strategy] = scored[index]
        for position, index in waiting:
            values[position] = scored[index]
        return values

