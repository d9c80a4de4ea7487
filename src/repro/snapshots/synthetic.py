"""Synthetic Lightning-Network-like topologies.

The paper's transaction model is motivated by Barabási–Albert preferential
attachment (Section II-B), and its joining-node algorithms are meant to be
run against public Lightning snapshots. We have no network access, so this
module generates synthetic snapshots that preserve the properties the model
actually consumes:

* heavy-tailed degree distribution (BA preferential attachment), which is
  what drives the Zipf rank factors;
* a small dense core and a large sparse periphery (core–periphery variant),
  matching published LN topology studies;
* lognormal channel capacities with both sides funded, so the reduced
  subgraph ``G'`` (Section II-B) is non-trivial.

Real snapshots in lnd ``describegraph`` JSON format load through
:mod:`repro.snapshots.io` into the same :class:`ChannelGraph`.

Each generator draws its structure graph in plain python: an
insertion-ordered adjacency dict, filled the way networkx 3.x fills an
``nx.Graph``, so the seeded topologies stay those of networkx's
``barabasi_albert_graph`` and ``gnp_random_graph`` node for node and
channel for channel. No topology build imports networkx.
"""

from __future__ import annotations

import itertools
import math
import random
from numbers import Integral, Real
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import InvalidParameter
from ..network.graph import ChannelGraph
from ..scenarios.registry import register_topology

__all__ = [
    "barabasi_albert_snapshot",
    "core_periphery_snapshot",
    "erdos_renyi_snapshot",
]

#: An undirected structure graph: node -> {neighbour: None}, both
#: levels in insertion order, like ``nx.Graph._adj``.
Structure = Dict[int, Dict[int, None]]


def _require_int(name: str, value: object, minimum: int) -> int:
    """``value`` as an int, or :class:`InvalidParameter` if it is not an
    integer ``>= minimum``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameter(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _is_number(value: object) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _add_edge(structure: Structure, u: int, v: int) -> None:
    structure.setdefault(u, {})[v] = None
    structure.setdefault(v, {})[u] = None


def _edges(structure: Structure) -> Iterator[Tuple[int, int]]:
    """The edges in ``nx.Graph.edges`` order: each node's neighbours in
    insertion order, skipping neighbours already visited as nodes. This
    is not the order the edges were added in."""
    seen = set()
    for node, neighbours in structure.items():
        for neighbour in neighbours:
            if neighbour not in seen:
                yield node, neighbour
        seen.add(node)


def _is_connected(structure: Structure) -> bool:
    start = next(iter(structure))
    reached = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbour in structure[node]:
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    return len(reached) == len(structure)


def _fund_channels(
    structure: Structure,
    rng: np.random.Generator,
    capacity_mu: float,
    capacity_sigma: float,
    balance_skew: float,
) -> ChannelGraph:
    """Turn an undirected structure graph into a funded ChannelGraph.

    Capacities are lognormal; each channel's capacity is split between the
    two sides by a Beta(balance_skew, balance_skew) draw (skew -> inf gives
    a 50/50 split; skew = 1 gives uniform splits). The draws follow
    :func:`_edges` order.
    """
    for name, value in (
        ("capacity_mu", capacity_mu),
        ("capacity_sigma", capacity_sigma),
        ("balance_skew", balance_skew),
    ):
        if not _is_number(value) or not math.isfinite(value):
            raise InvalidParameter(f"{name} must be a finite number, got {value!r}")
    if capacity_sigma < 0:
        raise InvalidParameter(f"capacity_sigma must be >= 0, got {capacity_sigma}")
    if balance_skew <= 0:
        raise InvalidParameter(f"balance_skew must be > 0, got {balance_skew}")
    pcn = ChannelGraph()
    for node in structure:
        pcn.add_node(f"n{node}")
    for u, v in _edges(structure):
        capacity = float(rng.lognormal(mean=capacity_mu, sigma=capacity_sigma))
        share = float(rng.beta(balance_skew, balance_skew))
        pcn.add_channel(f"n{u}", f"n{v}", capacity * share, capacity * (1 - share))
    return pcn


def _ba_structure(n: int, m: int, seed: int) -> Structure:
    """``nx.barabasi_albert_graph(n, m, seed)``: a star on ``m + 1``
    nodes, then each new node attaches to ``m`` distinct nodes drawn
    from ``repeated_nodes`` (one entry per edge end), added in the
    iteration order of the set that collected them."""
    # A seeded instance, as networkx builds from an int seed; its state is
    # local to this call.
    draw = random.Random(seed)  # reprolint: disable=RPR001
    structure: Structure = {node: {} for node in range(m + 1)}
    for leaf in range(1, m + 1):
        _add_edge(structure, 0, leaf)
    repeated_nodes = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(draw.choice(repeated_nodes))
        for target in targets:
            _add_edge(structure, source, target)
        repeated_nodes.extend(targets)
        repeated_nodes.extend([source] * m)
    return structure


def _gnp_structure(n: int, p: float, seed: int) -> Structure:
    """``nx.gnp_random_graph(n, p, seed)``: one ``random()`` draw per
    node pair, none when ``p >= 1`` (the complete graph)."""
    structure: Structure = {node: {} for node in range(n)}
    pairs = itertools.combinations(range(n), 2)
    if p >= 1:
        for u, v in pairs:
            _add_edge(structure, u, v)
        return structure
    draw = random.Random(seed).random  # reprolint: disable=RPR001
    for u, v in pairs:
        if draw() < p:
            _add_edge(structure, u, v)
    return structure


def _core_periphery_structure(
    core_size: int,
    periphery_size: int,
    periphery_links: int,
    rng: np.random.Generator,
) -> Structure:
    """A clique on ``core_size`` hubs, then ``periphery_size`` nodes that
    each link to ``periphery_links`` distinct hubs drawn by current hub
    degree."""
    core = list(range(core_size))
    structure: Structure = {hub: {} for hub in core}
    for i in core:
        for j in core[i + 1 :]:
            _add_edge(structure, i, j)
    degrees = {hub: core_size - 1 for hub in core}
    for p in range(core_size, core_size + periphery_size):
        weights = np.fromiter((degrees[h] for h in core), dtype=float)
        weights /= weights.sum()
        chosen = rng.choice(core, size=periphery_links, replace=False, p=weights)
        for hub in chosen:
            _add_edge(structure, p, int(hub))
            degrees[int(hub)] += 1
    return structure


@register_topology("ba", "barabasi-albert")
def barabasi_albert_snapshot(
    n: int,
    attachments: int = 2,
    capacity_mu: float = 1.5,
    capacity_sigma: float = 1.0,
    balance_skew: float = 5.0,
    seed: Optional[int] = None,
) -> ChannelGraph:
    """A BA preferential-attachment snapshot with ``n`` nodes.

    Args:
        n: number of nodes.
        attachments: channels each arriving node opens (BA's ``m``).
        capacity_mu / capacity_sigma: lognormal capacity parameters.
        balance_skew: Beta parameter splitting capacity between the sides.
        seed: RNG seed.
    """
    attachments = _require_int("attachments", attachments, 1)
    n = _require_int("n", n, 1)
    if n < attachments + 1:
        raise InvalidParameter("need n > attachments")
    rng = np.random.default_rng(seed)
    structure = _ba_structure(n, attachments, int(rng.integers(0, 2**31)))
    return _fund_channels(structure, rng, capacity_mu, capacity_sigma, balance_skew)


@register_topology("core-periphery")
def core_periphery_snapshot(
    core_size: int = 12,
    periphery_size: int = 88,
    periphery_links: int = 2,
    capacity_mu: float = 1.5,
    capacity_sigma: float = 1.0,
    balance_skew: float = 5.0,
    seed: Optional[int] = None,
) -> ChannelGraph:
    """A dense-core / sparse-periphery snapshot.

    The core is a clique of hubs (well-connected routing nodes); each
    periphery node connects to ``periphery_links`` core hubs chosen
    proportionally to current hub degree — the "connect to a hub"
    heuristic the paper's introduction describes as the status quo.
    """
    core_size = _require_int("core_size", core_size, 2)
    periphery_size = _require_int("periphery_size", periphery_size, 0)
    periphery_links = _require_int("periphery_links", periphery_links, 1)
    if periphery_links > core_size:
        raise InvalidParameter("periphery_links must be in [1, core_size]")
    rng = np.random.default_rng(seed)
    structure = _core_periphery_structure(
        core_size, periphery_size, periphery_links, rng
    )
    return _fund_channels(structure, rng, capacity_mu, capacity_sigma, balance_skew)


@register_topology("erdos-renyi", "er")
def erdos_renyi_snapshot(
    n: int,
    p: float = 0.1,
    capacity_mu: float = 1.5,
    capacity_sigma: float = 1.0,
    balance_skew: float = 5.0,
    seed: Optional[int] = None,
) -> ChannelGraph:
    """A connected Erdős–Rényi snapshot (baseline without degree skew).

    Used by ablation benches to isolate the effect of the heavy-tailed
    degree distribution on the Zipf model. Resamples until connected.
    """
    n = _require_int("n", n, 2)
    if not _is_number(p) or not 0 < p <= 1:
        raise InvalidParameter(f"p must be a number in (0, 1], got {p!r}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        structure = _gnp_structure(n, p, int(rng.integers(0, 2**31)))
        if _is_connected(structure):
            return _fund_channels(
                structure, rng, capacity_mu, capacity_sigma, balance_skew
            )
    raise InvalidParameter(
        f"could not sample a connected G({n}, {p}) in 1000 attempts; increase p"
    )
