"""Pluggable channel cost models (Section II-C and future-work item 2).

The paper's baseline opportunity cost is linear, ``l_u = r * c_u``,
justified by "the non-specialized nature of the underlying coins". Its
conclusion lists "a more realistic cost model that takes into account
interest rates as in [17] (Guasoni et al.)" as future work, and Section
II-C notes the computational results survive such an extension — which
holds because any per-channel cost remains *modular* in the strategy.

This module provides that extension point: :class:`CostModel`, whose
models expose ``channel_cost(locked)``, and one model,
:class:`DiscountedOpportunityCost` — Guasoni-style: locking ``l`` for a
channel lifetime ``T`` at continuously-compounded rate ``ρ`` forgoes
``l * (e^{ρT} - 1)`` of interest, discounted back to present value
``l * (1 - e^{-ρT})``. The joining-user model takes a model through its
``cost_model`` argument; without one it charges the paper's ``C + r*l``
(:meth:`ModelParameters.channel_cost <repro.params.ModelParameters.channel_cost>`).
"""

from __future__ import annotations

import abc
import math

from ..determinism import ordered_sum
from ..errors import InvalidParameter

__all__ = ["CostModel", "DiscountedOpportunityCost"]


class CostModel(abc.ABC):
    """Cost ``L_u(v, l)`` of one channel for one party."""

    @abc.abstractmethod
    def channel_cost(self, locked: float) -> float:
        """Total cost of a channel in which this party locks ``locked``."""

    def strategy_cost(self, locked_amounts) -> float:
        """Sum of channel costs — modular by construction."""
        return ordered_sum(self.channel_cost(l) for l in locked_amounts)


class DiscountedOpportunityCost(CostModel):
    """Interest-rate cost à la Guasoni et al. [17].

    Locking ``l`` coins for lifetime ``T`` at continuously-compounded
    interest ``ρ`` costs the present value of the forgone interest:

        opportunity(l) = l * (1 - e^{-ρT})

    which converges to the linear model for small ``ρT`` (rate ≈ ρT) and
    saturates at ``l`` for very long-lived channels (the entire principal's
    earning power is forgone).
    """

    def __init__(
        self, onchain_cost: float, interest_rate: float, lifetime: float
    ) -> None:
        if onchain_cost < 0 or interest_rate < 0 or lifetime < 0:
            raise InvalidParameter("cost parameters must be >= 0")
        self.onchain_cost = onchain_cost
        self.interest_rate = interest_rate
        self.lifetime = lifetime

    def channel_cost(self, locked: float) -> float:
        if locked < 0:
            raise InvalidParameter("locked must be >= 0")
        discount = 1.0 - math.exp(-self.interest_rate * self.lifetime)
        return self.onchain_cost + locked * discount

    def effective_linear_rate(self) -> float:
        """The ``r`` of the linear model this is equivalent to at l -> 0."""
        return 1.0 - math.exp(-self.interest_rate * self.lifetime)

