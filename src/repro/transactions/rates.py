"""Edge selection probabilities ``p_e`` and transaction rates ``λ_e`` (Eq. 2).

The rate at which a directed edge carries payments is the pair-weighted
edge betweenness of the edge — shortest-path traffic shares weighted by
``p_trans(s, r)`` and scaled by the network-wide sending rate.

Two weighting conventions are exposed:

* ``per_sender_rates=None`` (paper's Eq. 2): every ordered pair (s, r)
  contributes ``p_trans(s, r)``, and ``λ_e = N * p_e`` with one global
  ``N``. This matches "N transactions per unit time, each from a sender
  chosen by the global process".
* ``per_sender_rates`` given: pair (s, r) contributes
  ``N_s * p_trans(s, r)`` directly (the Section IV assumption-1 form with
  per-node sending rates ``N_{v1}``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..determinism import ordered_sum
from ..network.betweenness import BetweennessResult, pair_weighted_betweenness
from ..network.graph import ChannelGraph
from .distributions import TransactionDistribution

__all__ = [
    "edge_probabilities",
    "edge_rates",
    "intermediary_traffic",
    "traffic_profile",
]

Edge = Tuple[Hashable, Hashable]


def traffic_profile(
    graph: ChannelGraph,
    distribution: TransactionDistribution,
    amount: float = 0.0,
    per_sender_rates: Optional[Mapping[Hashable, float]] = None,
) -> BetweennessResult:
    """Node and edge traffic shares under ``distribution``.

    Args:
        graph: the PCN.
        distribution: ``p_trans``.
        amount: restrict to the reduced subgraph able to carry ``amount``.
        per_sender_rates: optional ``N_s`` per sender (see module docs).
    """
    view = graph.view(directed=True, reduced=amount)
    weights = distribution.pair_probabilities(view.nodes)
    if per_sender_rates is not None:
        rates = [per_sender_rates.get(s, 0.0) for s in view.nodes]
        weights *= np.array(rates)[:, None]
    return pair_weighted_betweenness(view, weights)


def edge_probabilities(
    graph: ChannelGraph,
    distribution: TransactionDistribution,
    amount: float = 0.0,
    sender_weights: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Edge, float]:
    """``p_e`` of Eq. 2: probability edge ``e`` is used by *one* transaction.

    A single transaction picks a sender (uniformly by default, or by the
    normalised ``sender_weights``), then a receiver from ``p_trans``; the
    literal sum in Eq. 2 adds one unit of mass per sender and is therefore
    not a probability — this implementation normalises so that
    ``Σ_pairs weight = 1``, matching the simulator's arrival process
    (every value is ``1/n`` of the literal formula under uniform senders).
    """
    nodes = list(graph.nodes)
    if sender_weights is None:
        share = 1.0 / len(nodes)
        weights = {v: share for v in nodes}
    else:
        total = ordered_sum(w for w in sender_weights.values() if w > 0)
        if total <= 0:
            raise ValueError("sender_weights must have positive mass")
        weights = {v: max(w, 0.0) / total for v, w in sender_weights.items()}
    profile = traffic_profile(
        graph, distribution, amount=amount, per_sender_rates=weights,
    )
    return profile.edge


def edge_rates(
    graph: ChannelGraph,
    distribution: TransactionDistribution,
    total_tx_rate: float,
    amount: float = 0.0,
    sender_weights: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Edge, float]:
    """``λ_e = N * p_e`` for every directed edge (Eq. 2 scaled by ``N``).

    ``total_tx_rate`` is the network-wide arrival rate ``N``; the per-pair
    split follows :func:`edge_probabilities`.
    """
    probs = edge_probabilities(
        graph, distribution, amount=amount, sender_weights=sender_weights,
    )
    return {edge: total_tx_rate * p for edge, p in probs.items()}


def intermediary_traffic(
    graph: ChannelGraph,
    distribution: TransactionDistribution,
    per_sender_rates: Optional[Mapping[Hashable, float]] = None,
    amount: float = 0.0,
) -> Dict[Hashable, float]:
    """Expected forwarding traffic through each node as an intermediary.

    Multiplying by ``f_avg`` gives Eq. 3's expected revenue; see
    :mod:`repro.core.revenue`.
    """
    profile = traffic_profile(
        graph,
        distribution,
        amount=amount,
        per_sender_rates=per_sender_rates,
    )
    return profile.node
