"""Expected fees a user pays for their own transactions (``E_fees``).

Section II-C:

    E_fees(u) = N_u * Σ_{v != u} hops(u, v) * f^T_avg * p_trans(u, v)

with ``hops`` derived from the shortest-path distance ``d(u, v)``. The
paper states fees are paid "to every intermediary node in the path" but
then charges ``d(u, v) * f^T_avg``; its Section IV proofs consistently use
the intermediary count ``d(u, v) - 1``. Both conventions are supported:

* ``"path-length"`` — charge ``d(u, v)`` per the Section II-C formula
  (default for the joining-user optimisation, matching Thm 1-5 statements);
* ``"intermediaries"`` — charge ``d(u, v) - 1`` (used by the Section IV
  equilibrium analysis; see :mod:`repro.equilibrium`).

``d(u, v) = +inf`` for unreachable ``v`` makes ``E_fees`` infinite, which
is how the model assigns utility ``-inf`` to disconnected strategies.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Mapping

from ..errors import InvalidParameter
from ..network.views import GraphView, bfs_distances

__all__ = ["expected_fees", "single_source_hops", "HOP_CONVENTIONS"]

HOP_CONVENTIONS = ("path-length", "intermediaries")


def single_source_hops(view: GraphView, source: Hashable) -> Dict[Hashable, int]:
    """Directed BFS hop distances from ``source`` (missing = unreachable).

    One vectorised BFS over the view's CSR arrays.
    """
    if source not in view:
        return {}
    levels = bfs_distances(view, view.index_of(source))
    return {view.nodes[i]: int(d) for i, d in enumerate(levels) if d >= 0}


def expected_fees(
    view: GraphView,
    user: Hashable,
    own_probs: Mapping[Hashable, float],
    user_tx_rate: float,
    fee_out_avg: float,
    hop_convention: str = "path-length",
) -> float:
    """``E_fees(user)`` under the given receiver distribution.

    Args:
        view: the (possibly reduced) directed
            :class:`~repro.network.views.GraphView` of the network.
        user: the sender.
        own_probs: ``p_trans(user, v)`` per receiver ``v`` (should sum to 1
            over intended receivers).
        user_tx_rate: ``N_u``.
        fee_out_avg: ``f^T_avg``.
        hop_convention: see module docstring.

    Returns:
        expected fee cost per unit time; ``math.inf`` when any intended
        receiver is unreachable.
    """
    if hop_convention not in HOP_CONVENTIONS:
        raise InvalidParameter(
            f"hop_convention must be one of {HOP_CONVENTIONS}, got {hop_convention!r}"
        )
    dist = single_source_hops(view, user)
    total = 0.0
    for receiver, prob in own_probs.items():
        if prob <= 0 or receiver == user:
            continue
        if receiver not in dist:
            return math.inf
        hops = dist[receiver]
        if hop_convention == "intermediaries":
            hops = max(hops - 1, 0)
        total += hops * prob
    return user_tx_rate * fee_out_avg * total
