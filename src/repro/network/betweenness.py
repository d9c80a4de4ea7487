"""Pair-weighted betweenness: the workhorse behind Eq. 2 and Eq. 3.

The paper estimates the rate at which a directed edge ``e`` carries
transactions as

    p_e = sum over ordered pairs (s, r), s != r, m(s,r) > 0 of
          m_e(s, r) / m(s, r) * p_trans(s, r)                     (Eq. 2)

where ``m_e(s, r)`` counts shortest ``s -> r`` paths through ``e`` and
``m(s, r)`` counts all shortest ``s -> r`` paths. The expected routing
revenue of a node ``u`` (Eq. 3 / Section IV assumption 1) has the same
shape with node-through-traffic ``m_u(s, r)``, restricted to ``u`` being an
*intermediary* (``u != s, r``).

Classic betweenness weights every pair equally, so we implement:

* :func:`pair_weighted_betweenness` — a generalisation of Brandes'
  accumulation in which the dependency seeded at each target ``r`` is an
  arbitrary weight ``W[s, r]`` rather than 1. One BFS per source, i.e.
  ``O(n * m)`` for unweighted graphs — the paper's "efficient O(n^2)
  estimation" for sparse graphs — or, on small graphs, one dense pass
  over all sources at once.
* :func:`pair_weighted_betweenness_exact` — literal enumeration of all
  shortest paths per pair. Exponentially slower; used as the ground-truth
  cross-check in tests and bench E11.

Both take a :class:`~repro.network.views.GraphView` CSR snapshot and one
``float[n, n]`` array: ``weights[i, j]`` weighs the pair ``(view.nodes[i],
view.nodes[j])``, and ``None`` weighs every pair 1. No pass calls back
into python per pair. Below
``SMALL_GRAPH_NODES`` nodes, :func:`betweenness_arrays` sweeps every
source at once, level by level, on the view's cached hop-distance and
path-count tables (:func:`~repro.network.views.all_pairs_paths`): ~3 ms
at n=100 with the tables built, where the per-node python pass it
replaced took ~12 ms. From there up it runs one BFS per source over the
CSR arrays. Only the enumeration oracle needs networkx.

The equilibrium analysis, the attacks, the rate estimates and the joining
model's fixed-rate estimate run on the Brandes pass; the joining model's
per-strategy revenue does not (it is a closed form over base-graph
tables, see :mod:`repro.core.utility`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter
from .views import (
    SMALL_GRAPH_NODES,
    GraphView,
    all_pairs_paths,
    bfs_shortest_path_tree,
)

__all__ = [
    "BetweennessArrays",
    "BetweennessResult",
    "betweenness_arrays",
    "pair_weighted_betweenness",
    "pair_weighted_betweenness_exact",
]

Edge = Tuple[Hashable, Hashable]


def _checked_weights(view: GraphView, weights: Optional[np.ndarray]) -> np.ndarray:
    """``weights`` checked against ``view``; read-only ones for ``None``."""
    n = view.num_nodes
    if weights is None:
        return np.broadcast_to(1.0, (n, n))
    shape = getattr(weights, "shape", None)
    if shape != (n, n) or weights.dtype.kind != "f":
        got = getattr(weights, "dtype", type(weights).__name__)
        raise InvalidParameter(
            f"weights must be a float array of shape ({n}, {n}), "
            f"got {got} of shape {shape}"
        )
    return weights


class BetweennessResult:
    """Node and edge pair-weighted betweenness of one graph.

    Attributes:
        node: ``node -> sum over pairs (s, r) with s, r != node of
        m_node(s,r)/m(s,r) * W[s, r]`` (intermediary traffic through node).
        edge: ``(src, dst) -> p_e`` as in Eq. 2 (endpoint hops included).
    """

    __slots__ = ("node", "edge")

    def __init__(self, node: Dict[Hashable, float], edge: Dict[Edge, float]) -> None:
        self.node = node
        self.edge = edge

    def edge_value(self, src: Hashable, dst: Hashable) -> float:
        return self.edge.get((src, dst), 0.0)

    def node_value(self, node: Hashable) -> float:
        return self.node.get(node, 0.0)


class BetweennessArrays:
    """Array-form pair-weighted betweenness of one :class:`GraphView`.

    Attributes:
        view: the CSR snapshot the accumulation ran on.
        node_values: ``float64[n]`` intermediary traffic per node index.
        edge_values: ``float64[m]`` Eq. 2 accumulation per CSR entry.
    """

    __slots__ = ("view", "node_values", "edge_values")

    def __init__(
        self, view: GraphView, node_values: np.ndarray, edge_values: np.ndarray
    ) -> None:
        self.view = view
        self.node_values = node_values
        self.edge_values = edge_values

    def to_result(self) -> "BetweennessResult":
        """Translate the arrays into the label-keyed result shape."""
        nodes = self.view.nodes
        node = {label: float(v) for label, v in zip(nodes, self.node_values)}
        rows = self.view.entry_rows()
        edge: Dict[Edge, float] = {}
        nonzero = np.nonzero(self.edge_values)[0]
        for pos in nonzero:
            edge[(nodes[rows[pos]], nodes[self.view.indices[pos]])] = float(
                self.edge_values[pos]
            )
        return BetweennessResult(node, edge)


def betweenness_arrays(
    view: GraphView,
    weights: Optional[np.ndarray] = None,
    sources: Optional[Iterable[Hashable]] = None,
) -> BetweennessArrays:
    """Brandes' accumulation with per-pair weights: the dense pass below
    ``SMALL_GRAPH_NODES`` nodes, one CSR pass per source from there up.
    Raises :class:`~repro.errors.InvalidParameter` for ``weights`` that
    are not a float ``(n, n)`` array."""
    weights = _checked_weights(view, weights)
    if sources is None:
        source_indices: Sequence[int] = range(view.num_nodes)
    else:
        source_indices = [
            view.node_index[s] for s in sources if s in view.node_index
        ]
    if view.num_nodes < SMALL_GRAPH_NODES:
        return _dense_betweenness(view, weights, source_indices)
    return _csr_betweenness(view, weights, source_indices)


def _dense_betweenness(
    view: GraphView, weights: np.ndarray, source_indices: Sequence[int]
) -> BetweennessArrays:
    """Every source's backward sweep at once, on ``(D, Σ)`` of
    :func:`~repro.network.views.all_pairs_paths`.

    Rows are sources. Brandes' coefficient of a reached target is
    ``c = (W + Δ)/Σ = W/Σ + S``, where ``S`` adds up ``c`` over the
    target's children in the shortest-path DAG and ``Δ = Σ·S`` is its
    dependency. Deepest level first, ``c_k = [D=k]·(W/Σ + S)`` is final,
    and ``S += [D=k−1]·(c_k Aᵀ)`` hands it to the parents one level up.
    Entry ``v -> w`` then carries ``Σ[s, v]·c[s, w]`` from every source
    for which it is a DAG edge (``D[s, w] = D[s, v] + 1``). ``W`` is
    the source's row of ``weights`` on the reached pairs and zero
    elsewhere.
    """
    n = view.num_nodes
    rows = np.asarray(source_indices, dtype=np.int64)
    all_dist, all_sigma = all_pairs_paths(view)
    dist, sigma = all_dist[rows], all_sigma[rows]
    sources = np.arange(rows.size)
    reached = dist < np.inf
    reached[sources, rows] = False
    pair = np.where(reached, weights[rows], 0.0)
    entry_rows, targets = view.entry_rows(), view.indices
    # flow[w, v] = 1 for each entry v -> w, so (c @ flow)[s, v] adds up
    # c over v's successors.
    flow = np.zeros((n, n))
    flow[targets, entry_rows] = 1.0
    # Unreached cells have no weight; dividing them by one keeps them 0.
    seed = pair / np.where(sigma > 0, sigma, 1.0)
    below = np.zeros(dist.shape)
    depth = int(dist[reached].max()) if reached.any() else 0
    at_level = dist == depth
    for level in range(depth, 0, -1):
        coeff = seed + below
        coeff *= at_level
        at_level = dist == level - 1
        below += at_level * (coeff @ flow)
    coeff = seed + below
    dag = dist[:, targets] == dist[:, entry_rows] + 1
    edge = (sigma[:, entry_rows] * coeff[:, targets] * dag).sum(axis=0)
    delta = sigma * below
    delta[sources, rows] = 0.0
    return BetweennessArrays(view, delta.sum(axis=0), edge)


def _csr_betweenness(
    view: GraphView, weights: np.ndarray, source_indices: Sequence[int]
) -> BetweennessArrays:
    """One source at a time over the CSR arrays: for each BFS level
    (deepest first), ``(W[s, t] + delta[t]) / sigma[t]`` for every tree
    edge at once, scattered into the per-entry and per-node sums."""
    n = view.num_nodes
    node_acc = np.zeros(n, dtype=np.float64)
    edge_acc = np.zeros(view.num_entries, dtype=np.float64)
    delta = np.zeros(n, dtype=np.float64)
    for s in source_indices:
        tree = bfs_shortest_path_tree(view, s)
        if not tree.levels:
            continue
        # Only reached targets other than s are read from the row.
        pair = weights[s]
        delta[:] = 0.0
        sigma = tree.sigma
        for entries, srcs, targets in reversed(tree.levels):
            contrib = (
                sigma[srcs] * (pair[targets] + delta[targets]) / sigma[targets]
            )
            # A CSR entry is a tree edge of exactly one level and appears
            # once in it, so plain fancy-index += is a safe scatter here;
            # sources repeat, so delta needs a true scatter-add.
            edge_acc[entries] += contrib
            delta += np.bincount(srcs, weights=contrib, minlength=n)
        delta[s] = 0.0
        node_acc += delta
    return BetweennessArrays(view, node_acc, edge_acc)


def pair_weighted_betweenness(
    view: GraphView,
    weights: Optional[np.ndarray] = None,
    sources: Optional[Iterable[Hashable]] = None,
) -> BetweennessResult:
    """Brandes' algorithm with per-pair dependency weights.

    Args:
        view: the CSR snapshot to accumulate over (typically
            ``graph.view(directed=True)`` or a reduced view); shortest
            paths are hop counts.
        weights: ``float[n, n]``; ``weights[i, j]`` is the weight the
            ordered pair ``(view.nodes[i], view.nodes[j])`` contributes
            (e.g. ``N_s * p_trans(s, r)`` for transaction rates). ``None``
            weighs every pair 1.
        sources: restrict the outer loop to these sources (defaults to all
            nodes). Restricting is how callers compute "traffic sent by a
            single node" cheaply.

    Returns:
        :class:`BetweennessResult` with node (intermediary-only) and edge
        accumulations: :func:`betweenness_arrays` keyed by node labels.
    """
    return betweenness_arrays(view, weights, sources=sources).to_result()


def pair_weighted_betweenness_exact(
    view: GraphView,
    weights: Optional[np.ndarray] = None,
) -> BetweennessResult:
    """Ground-truth Eq. 2 by explicit shortest-path enumeration.

    Enumerates every shortest path of every ordered pair with
    ``networkx.all_shortest_paths`` on ``view.to_networkx()`` and
    accumulates fractional traffic; ``weights`` is read as in
    :func:`pair_weighted_betweenness`. Exponential in the worst case; only
    for small graphs (tests, cross-validation benches). Imports networkx
    when called.
    """
    import networkx as nx

    weights = _checked_weights(view, weights)
    index = view.node_index
    graph = view.to_networkx()
    node_acc: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes}
    edge_acc: Dict[Edge, float] = {}
    for s in graph.nodes:
        for r in graph.nodes:
            if s == r:
                continue
            try:
                paths = list(nx.all_shortest_paths(graph, s, r))
            except nx.NetworkXNoPath:
                continue
            weight = weights.item(index[s], index[r])
            if weight == 0.0 or not paths:
                continue
            share = weight / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    node_acc[v] += share
                for src, dst in zip(path, path[1:]):
                    edge_acc[(src, dst)] = edge_acc.get((src, dst), 0.0) + share
    return BetweennessResult(node_acc, edge_acc)
