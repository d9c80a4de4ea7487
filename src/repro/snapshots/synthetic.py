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

networkx draws the structure graphs, so the seeded topologies stay those
of its generators. Each generator imports it when called: the topology
registry imports this module, and the CLI, the service client and the
daemon must not pay for networkx until a topology is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import InvalidParameter
from ..network.graph import ChannelGraph
from ..scenarios.registry import register_topology

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = [
    "barabasi_albert_snapshot",
    "core_periphery_snapshot",
    "erdos_renyi_snapshot",
]


def _fund_channels(
    graph: "nx.Graph",
    rng: np.random.Generator,
    capacity_mu: float,
    capacity_sigma: float,
    balance_skew: float,
) -> ChannelGraph:
    """Turn an undirected structure graph into a funded ChannelGraph.

    Capacities are lognormal; each channel's capacity is split between the
    two sides by a Beta(balance_skew, balance_skew) draw (skew -> inf gives
    a 50/50 split; skew = 1 gives uniform splits).
    """
    pcn = ChannelGraph()
    for node in graph.nodes:
        pcn.add_node(f"n{node}")
    for u, v in graph.edges:
        capacity = float(rng.lognormal(mean=capacity_mu, sigma=capacity_sigma))
        share = float(rng.beta(balance_skew, balance_skew))
        pcn.add_channel(f"n{u}", f"n{v}", capacity * share, capacity * (1 - share))
    return pcn


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
    if n < attachments + 1:
        raise InvalidParameter("need n > attachments")
    import networkx as nx

    rng = np.random.default_rng(seed)
    structure = nx.barabasi_albert_graph(
        n, attachments, seed=int(rng.integers(0, 2**31))
    )
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
    if core_size < 2:
        raise InvalidParameter("core_size must be >= 2")
    if periphery_links < 1 or periphery_links > core_size:
        raise InvalidParameter("periphery_links must be in [1, core_size]")
    import networkx as nx

    rng = np.random.default_rng(seed)
    structure = nx.Graph()
    core = list(range(core_size))
    structure.add_nodes_from(core)
    for i in core:
        for j in core[i + 1 :]:
            structure.add_edge(i, j)
    degrees = {hub: core_size - 1 for hub in core}
    for p in range(core_size, core_size + periphery_size):
        weights = np.fromiter((degrees[h] for h in core), dtype=float)
        weights /= weights.sum()
        chosen = rng.choice(core, size=periphery_links, replace=False, p=weights)
        for hub in chosen:
            structure.add_edge(p, int(hub))
            degrees[int(hub)] += 1
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
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    if not 0 < p <= 1:
        raise InvalidParameter("p must be in (0, 1]")
    import networkx as nx

    rng = np.random.default_rng(seed)
    for _ in range(1000):
        structure = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        if nx.is_connected(structure):
            return _fund_channels(
                structure, rng, capacity_mu, capacity_sigma, balance_skew
            )
    raise InvalidParameter(
        f"could not sample a connected G({n}, {p}) in 1000 attempts; increase p"
    )
