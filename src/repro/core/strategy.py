"""Actions, strategies, and action sets (Ω) of the joining user.

Section II-C: the new user ``u`` picks a strategy ``S ⊆ Ω`` where each
element ``(v_i, l_i)`` is a channel to node ``v_i`` funded with ``l_i``
coins from ``u``'s side. Both Ω and S may contain the same endpoint more
than once with different funds (parallel channels). The budget constraint
is ``Σ_j (C + l_j) <= B_u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, List, Tuple

from ..determinism import ordered_sum
from ..errors import BudgetExceeded, InvalidParameter
from ..network.graph import ChannelGraph
from ..params import ModelParameters

__all__ = ["Action", "Strategy", "ActionSpace", "BUDGET_SLACK"]

#: Float slack of every budget comparison: a strategy whose cost exceeds
#: the budget by less than this still fits, and the action-space bounds
#: count the channels or lock units that fit by the same rule.
BUDGET_SLACK = 1e-9


@dataclass(frozen=True, order=True)
class Action:
    """One channel the joining user may open: peer + funds locked by ``u``."""

    peer: Hashable
    locked: float

    def __post_init__(self) -> None:
        if self.locked < 0:
            raise InvalidParameter(f"locked funds must be >= 0, got {self.locked}")

    def budget_cost(self, params: ModelParameters) -> float:
        """Budget consumed: on-chain fee plus the locked coins themselves."""
        return params.onchain_cost + self.locked

    def utility_cost(self, params: ModelParameters) -> float:
        """Utility cost ``L_u(v, l) = C + r*l`` (opportunity cost, not principal)."""
        return params.channel_cost(self.locked)


class Strategy:
    """An immutable multiset of :class:`Action` objects.

    Supports the multiset semantics of the paper's Ω (repeated endpoints
    allowed). Equality and hashing are by multiset content, so strategies
    can key memoisation caches.
    """

    __slots__ = ("_actions", "_hash")

    def __init__(self, actions: Iterable[Action] = ()) -> None:
        ordered = sorted(actions, key=lambda a: (str(a.peer), a.locked))
        self._actions: Tuple[Action, ...] = tuple(ordered)
        # Strategies key the evaluator's cache, so hash them once.
        self._hash = hash(self._actions)

    # -- multiset protocol --------------------------------------------------

    def __iter__(self) -> Iterator[Action]:
        return iter(self._actions)

    def __len__(self) -> int:
        return len(self._actions)

    def __contains__(self, action: Action) -> bool:
        return action in self._actions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return self._actions == other._actions

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"({a.peer!r}, {a.locked})" for a in self._actions)
        return f"Strategy([{inner}])"

    # -- derived quantities ----------------------------------------------------

    @property
    def actions(self) -> Tuple[Action, ...]:
        return self._actions

    def total_locked(self) -> float:
        return ordered_sum(action.locked for action in self._actions)

    def budget_cost(self, params: ModelParameters) -> float:
        """``Σ (C + l_j)`` — what the strategy draws from the budget."""
        return ordered_sum(action.budget_cost(params) for action in self._actions)

    def utility_cost(self, params: ModelParameters) -> float:
        """``Σ L_u(v, l)`` — the cost term of the utility function."""
        return ordered_sum(action.utility_cost(params) for action in self._actions)

    def check_budget(self, params: ModelParameters, budget: float) -> None:
        """Raise :class:`BudgetExceeded` when over budget."""
        cost = self.budget_cost(params)
        if cost > budget + BUDGET_SLACK:
            raise BudgetExceeded(cost, budget)

    def fits_budget(self, params: ModelParameters, budget: float) -> bool:
        return self.budget_cost(params) <= budget + BUDGET_SLACK

    # -- functional updates -------------------------------------------------------

    def with_action(self, action: Action) -> "Strategy":
        return Strategy(self._actions + (action,))

    def without_action(self, action: Action) -> "Strategy":
        if action not in self:
            raise InvalidParameter(f"{action!r} not in strategy")
        remaining = list(self._actions)
        remaining.remove(action)
        return Strategy(remaining)


class ActionSpace:
    """Builders for the candidate action set Ω of a joining user.

    All builders exclude the joining user itself from the candidate peers.
    """

    @staticmethod
    def fixed_lock(
        graph: ChannelGraph, new_user: Hashable, lock: float
    ) -> List[Action]:
        """Ω for Algorithm 1: every existing node, all with lock ``l1``."""
        if lock < 0:
            raise InvalidParameter(f"lock must be >= 0, got {lock}")
        return [Action(peer, lock) for peer in graph.nodes if peer != new_user]

    @staticmethod
    def discrete(
        graph: ChannelGraph,
        new_user: Hashable,
        budget: float,
        granularity: float,
        params: ModelParameters,
    ) -> List[Action]:
        """Ω for Algorithm 2: locks are multiples ``k*m`` affordable in budget.

        Includes ``k = 0`` (a channel with no extra locked funds) through
        the largest multiple such that ``C + k*m <= budget`` (up to
        :data:`BUDGET_SLACK`).
        """
        if granularity <= 0:
            raise InvalidParameter(f"granularity must be > 0, got {granularity}")
        if budget + BUDGET_SLACK < params.onchain_cost:
            return []
        max_units = int(
            (budget - params.onchain_cost + BUDGET_SLACK) / granularity
        )
        locks = [k * granularity for k in range(max_units + 1)]
        return [
            Action(peer, lock)
            for peer in graph.nodes
            if peer != new_user
            for lock in locks
        ]

    @staticmethod
    def max_channels(params: ModelParameters, budget: float, lock: float) -> int:
        """``M = floor(B_u / (C + l1))`` — channel count bound of Thm 4,
        with the :data:`BUDGET_SLACK` of :meth:`Strategy.fits_budget`."""
        per_channel = params.onchain_cost + lock
        if per_channel <= 0:
            raise InvalidParameter("per-channel cost must be positive")
        return int((budget + BUDGET_SLACK) / per_channel)
