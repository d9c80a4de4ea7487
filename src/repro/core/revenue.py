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

from typing import Dict, Hashable, Iterable, Optional

import numpy as np

from ..network.betweenness import pair_weighted_betweenness
from ..network.views import GraphView

__all__ = ["expected_revenue", "revenue_profile"]


def revenue_profile(
    view: GraphView,
    weights: np.ndarray,
    fee_avg: float,
    sources: Optional[Iterable[Hashable]] = None,
) -> Dict[Hashable, float]:
    """Expected revenue of *every* node under ``weights`` traffic.

    ``view`` is the (possibly reduced) directed
    :class:`~repro.network.views.GraphView` the Brandes pass runs on.
    ``weights[i, j]`` weighs the pair ``(view.nodes[i], view.nodes[j])``
    and should already fold in the sender rate, e.g.
    ``N_s * p_trans(s, r)``.
    """
    result = pair_weighted_betweenness(view, weights, sources=sources)
    return {node: fee_avg * value for node, value in result.node.items()}


def expected_revenue(
    view: GraphView,
    user: Hashable,
    weights: np.ndarray,
    fee_avg: float,
    sources: Optional[Iterable[Hashable]] = None,
) -> float:
    """``E_rev(user)``; see :func:`revenue_profile`."""
    if user not in view:
        return 0.0
    return revenue_profile(view, weights, fee_avg, sources=sources).get(
        user, 0.0
    )
