"""Deviation moves available to a node in the network creation game.

A node's strategy is the set of channels it maintains. A unilateral
deviation removes any subset of its incident channels and/or adds channels
to any set of non-neighbors (each added channel costs the deviator ``l``,
mirroring the Thm 8 proof where a leaf adding ``i`` channels pays ``l*i``).

Enumerating all ``2^(deg) * 2^(non-neighbors)`` deviations is exponential
(computing exact best responses is NP-hard, Thm 2 of [19]); the structured
family below covers the strategy classes used in the paper's proofs —
which are exact for the symmetric topologies of Section IV — plus optional
exhaustive enumeration for tiny graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import FrozenSet, Hashable, Iterator, List, Optional

import numpy as np

from ..determinism import resolve_seed
from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = [
    "Deviation",
    "apply_deviation",
    "structured_deviations",
    "exhaustive_deviations",
    "sampled_deviations",
]


@dataclass(frozen=True)
class Deviation:
    """Remove channels to ``remove`` and open channels to ``add``."""

    remove: FrozenSet[Hashable]
    add: FrozenSet[Hashable]

    @property
    def is_null(self) -> bool:
        return not self.remove and not self.add

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rem = sorted(map(str, self.remove))
        add = sorted(map(str, self.add))
        return f"Deviation(remove={rem}, add={add})"


def apply_deviation(
    graph: ChannelGraph,
    node: Hashable,
    deviation: Deviation,
    balance: float = 1.0,
) -> ChannelGraph:
    """A fresh graph with ``deviation`` applied on behalf of ``node``.

    Removing drops *all* parallel channels to the removed neighbor; adding
    opens one channel funded ``balance``/``balance`` per peer, in ``str``
    order, so the new channels' ids do not depend on set iteration order.
    """
    if node not in graph:
        raise NodeNotFound(node)
    out = graph.copy()
    for neighbor in deviation.remove:
        channels = out.channels_between(node, neighbor)
        if not channels:
            raise InvalidParameter(
                f"cannot remove non-existent channel {node!r}-{neighbor!r}"
            )
        for channel in channels:
            out.remove_channel(channel.channel_id)
    for peer in sorted(deviation.add, key=str):
        if peer == node:
            raise InvalidParameter("cannot open a channel to oneself")
        if graph.has_channel(node, peer):
            raise InvalidParameter(
                f"cannot add duplicate channel {node!r}-{peer!r}"
            )
        out.add_channel(node, peer, balance, balance)
    return out


def _subsets(items: List[Hashable], max_size: int) -> Iterator[FrozenSet[Hashable]]:
    for size in range(min(max_size, len(items)) + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


def structured_deviations(
    graph: ChannelGraph,
    node: Hashable,
    max_add_enumerated: int = 2,
    max_remove_enumerated: int = 2,
    samples_per_size: int = 2,
    seed: Optional[int] = 0,
) -> List[Deviation]:
    """The deviation family used by the Section IV proofs.

    Includes:

    * all removal subsets up to ``max_remove_enumerated`` plus "remove all";
    * all addition subsets up to ``max_add_enumerated`` plus "add all"
      (the leaf-connects-to-all-leaves class) and, for each larger size,
      ``samples_per_size`` random subsets plus one canonical (sorted-order)
      subset — exact for vertex-transitive positions like star leaves;
    * the cross products "remove X and add Y" for the enumerated cores,
      covering the rewire classes (e.g. drop the hub, connect to leaves).

    ``seed=None`` draws a logged seed (:func:`~repro.determinism.resolve_seed`).
    """
    if node not in graph:
        raise NodeNotFound(node)
    rng = np.random.default_rng(resolve_seed(seed))
    neighbors = sorted(graph.neighbors(node), key=str)
    non_neighbors = sorted(
        (v for v in graph.nodes if v != node and not graph.has_channel(node, v)),
        key=str,
    )

    removal_sets = list(_subsets(neighbors, max_remove_enumerated))
    full_removal = frozenset(neighbors)
    if full_removal not in removal_sets:
        removal_sets.append(full_removal)

    addition_sets = list(_subsets(non_neighbors, max_add_enumerated))
    for size in range(max_add_enumerated + 1, len(non_neighbors) + 1):
        addition_sets.append(frozenset(non_neighbors[:size]))  # canonical
        for _ in range(samples_per_size):
            picked = rng.choice(len(non_neighbors), size=size, replace=False)
            addition_sets.append(frozenset(non_neighbors[i] for i in picked))

    seen = set()
    deviations: List[Deviation] = []
    for remove in removal_sets:
        for add in addition_sets:
            deviation = Deviation(remove=remove, add=add)
            key = (remove, add)
            if deviation.is_null or key in seen:
                continue
            seen.add(key)
            deviations.append(deviation)
    return deviations


def sampled_deviations(
    graph: ChannelGraph,
    node: Hashable,
    moves: int = 8,
    seed: Optional[int] = 0,
) -> List[Deviation]:
    """A bounded random family of single-channel moves for large graphs.

    :func:`structured_deviations` enumerates all small addition subsets,
    which is quadratic in the number of non-neighbors — unusable when an
    evolution run sweeps nodes of a 500-node network every epoch. This
    family instead draws at most ``moves`` deviations from the three
    one-channel move classes (add one, remove one, swap one for one),
    split as evenly as the candidate pools allow. Deterministic for a
    given ``seed`` (``None`` draws a logged one); deduplicated; may
    return fewer than ``moves`` when the pools are small.
    """
    if node not in graph:
        raise NodeNotFound(node)
    if moves < 1:
        raise InvalidParameter(f"moves must be >= 1, got {moves}")
    rng = np.random.default_rng(resolve_seed(seed))
    neighbors = sorted(graph.neighbors(node), key=str)
    non_neighbors = sorted(
        (v for v in graph.nodes if v != node and not graph.has_channel(node, v)),
        key=str,
    )

    def pick(pool: List[Hashable], count: int) -> List[Hashable]:
        count = min(count, len(pool))
        if count <= 0:
            return []
        chosen = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(chosen)]

    per_class = max(1, moves // 3)
    seen = set()
    out: List[Deviation] = []
    candidates = chain(
        (Deviation(remove=frozenset(), add=frozenset([peer]))
         for peer in pick(non_neighbors, per_class)),
        (Deviation(remove=frozenset([peer]), add=frozenset())
         for peer in pick(neighbors, per_class)),
        (Deviation(remove=frozenset([old]), add=frozenset([new]))
         for old, new in zip(
             pick(neighbors, moves), pick(non_neighbors, moves))),
    )
    for deviation in candidates:
        key = (deviation.remove, deviation.add)
        if key in seen:
            continue
        seen.add(key)
        out.append(deviation)
        if len(out) >= moves:
            break
    return out


def exhaustive_deviations(
    graph: ChannelGraph, node: Hashable
) -> List[Deviation]:
    """Every deviation (all removal subsets × all addition subsets).

    ``2^(deg + non-neighbors)`` moves — only for tiny graphs; used by tests
    to certify that :func:`structured_deviations` found the true best
    response on the paper's topologies.
    """
    if node not in graph:
        raise NodeNotFound(node)
    neighbors = sorted(graph.neighbors(node), key=str)
    non_neighbors = sorted(
        (v for v in graph.nodes if v != node and not graph.has_channel(node, v)),
        key=str,
    )
    out = []
    for remove in _subsets(neighbors, len(neighbors)):
        for add in _subsets(non_neighbors, len(non_neighbors)):
            deviation = Deviation(remove=remove, add=add)
            if not deviation.is_null:
                out.append(deviation)
    return out
