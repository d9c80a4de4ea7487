"""Expected routing revenue ``E_rev`` (Eq. 3 / Section IV assumption 1).

A node earns ``f_avg`` each time it forwards someone else's transaction.
Writing traffic as shortest-path shares weighted by the transaction
distribution, the expected revenue per unit time of node ``u`` is

    E_rev(u) = f_avg * Σ_{v1 != v2, v1,v2 != u}
               m_u(v1, v2) / m(v1, v2) * N_{v1} * p_trans(v1, v2)

i.e. ``f_avg`` times the pair-weighted *intermediary* betweenness of ``u``.
These functions run one Brandes pass over a given view. The joining-user
model evaluates the same sum in closed form (:mod:`repro.core.utility`)
and is tested against them.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional

from ..network.betweenness import pair_weighted_betweenness
from ..network.views import GraphView

__all__ = ["expected_revenue", "revenue_profile"]


def revenue_profile(
    view: GraphView,
    pair_weight: Callable[[Hashable, Hashable], float],
    fee_avg: float,
    sources: Optional[Iterable[Hashable]] = None,
) -> Dict[Hashable, float]:
    """Expected revenue of *every* node under ``pair_weight`` traffic.

    ``view`` is the (possibly reduced) directed
    :class:`~repro.network.views.GraphView` the Brandes pass runs on.
    ``pair_weight(s, r)`` should already fold in the sender rate, e.g.
    ``N_s * p_trans(s, r)``.
    """
    result = pair_weighted_betweenness(view, pair_weight, sources=sources)
    return {node: fee_avg * value for node, value in result.node.items()}


def expected_revenue(
    view: GraphView,
    user: Hashable,
    pair_weight: Callable[[Hashable, Hashable], float],
    fee_avg: float,
    sources: Optional[Iterable[Hashable]] = None,
) -> float:
    """``E_rev(user)``; see :func:`revenue_profile`."""
    if user not in view:
        return 0.0
    return revenue_profile(view, pair_weight, fee_avg, sources=sources).get(
        user, 0.0
    )
