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

Plain ``networkx`` betweenness weights every pair equally, so we implement:

* :func:`pair_weighted_betweenness` — a generalisation of Brandes'
  accumulation in which the dependency seeded at each target ``r`` is an
  arbitrary weight ``w(s, r)`` rather than 1. One BFS per source, i.e.
  ``O(n * m)`` for unweighted graphs — the paper's "efficient O(n^2)
  estimation" for sparse graphs.
* :func:`pair_weighted_betweenness_exact` — literal enumeration of all
  shortest paths per pair. Exponentially slower; used as the ground-truth
  cross-check in tests and bench E11.

``pair_weighted_betweenness`` accepts either a legacy ``nx.DiGraph`` (the
original dict-of-dict Brandes pass) or a :class:`~repro.network.views.GraphView`
CSR snapshot, in which case the whole accumulation — BFS, sigma counting,
and the backward dependency sweep — runs as vectorised numpy passes over
the view's arrays (:func:`betweenness_arrays`). The equilibrium analysis,
the attacks, the rate estimates and the joining model's fixed-rate
estimate run on it; the joining model's per-strategy revenue does not (it
is a closed form over base-graph tables, see :mod:`repro.core.utility`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from .views import SMALL_GRAPH_NODES, GraphView, bfs_shortest_path_tree

__all__ = [
    "BetweennessArrays",
    "BetweennessResult",
    "betweenness_arrays",
    "pair_weighted_betweenness",
    "pair_weighted_betweenness_exact",
    "uniform_pair_weight",
]

PairWeight = Callable[[Hashable, Hashable], float]
Edge = Tuple[Hashable, Hashable]


def uniform_pair_weight(_s: Hashable, _r: Hashable) -> float:
    """Weight function that reduces everything to classic betweenness."""
    return 1.0


class BetweennessResult:
    """Node and edge pair-weighted betweenness of one graph.

    Attributes:
        node: ``node -> sum over pairs (s, r) with s, r != node of
        m_node(s,r)/m(s,r) * w(s, r)`` (intermediary traffic through node).
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
        """Translate the arrays into the dict-keyed legacy result shape."""
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


def _betweenness_arrays_small(
    view: GraphView,
    pair_weight: PairWeight,
    source_indices,
    uniform: bool,
) -> BetweennessArrays:
    """Classic per-node Brandes over cached adjacency lists (small graphs)."""
    n = view.num_nodes
    adj = view.adjacency_lists()
    nodes = view.nodes
    node_buf = [0.0] * n
    edge_buf = [0.0] * view.num_entries
    for s in source_indices:
        dist = [-1] * n
        sigma = [0.0] * n
        preds: List[list] = [[] for _ in range(n)]
        order = [s]
        dist[s] = 0
        sigma[s] = 1.0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            for w, entry in adj[v]:
                if dist[w] < 0:
                    dist[w] = next_dist
                    order.append(w)
                    queue.append(w)
                if dist[w] == next_dist:
                    sigma[w] += sigma_v
                    preds[w].append((v, entry))
        delta = [0.0] * n
        s_label = nodes[s]
        for w in reversed(order):
            if w == s:
                continue
            weight = 1.0 if uniform else pair_weight(s_label, nodes[w])
            coeff = (weight + delta[w]) / sigma[w]
            for v, entry in preds[w]:
                contribution = sigma[v] * coeff
                if contribution != 0.0:
                    edge_buf[entry] += contribution
                    delta[v] += contribution
        for v in order:
            if v != s:
                node_buf[v] += delta[v]
    return BetweennessArrays(
        view,
        np.asarray(node_buf, dtype=np.float64),
        np.asarray(edge_buf, dtype=np.float64),
    )


def betweenness_arrays(
    view: GraphView,
    pair_weight: PairWeight = uniform_pair_weight,
    sources: Optional[Iterable[Hashable]] = None,
) -> BetweennessArrays:
    """Brandes' accumulation with per-pair weights over CSR arrays.

    The per-source pass is Brandes' backward sweep as numpy level-at-a-time
    dependency vectors: for each BFS level (deepest first), the coefficient
    ``(w(s, t) + delta[t]) / sigma[t]`` is computed for every tree edge at
    once and scattered into the per-entry and per-node accumulators. Small
    graphs take an equivalent per-node python pass instead, where the
    vectorisation overhead would dominate.
    """
    n = view.num_nodes
    if sources is None:
        source_indices = range(n)
    else:
        source_indices = [
            view.node_index[s] for s in sources if s in view.node_index
        ]
    uniform = pair_weight is uniform_pair_weight
    if n < SMALL_GRAPH_NODES:
        return _betweenness_arrays_small(
            view, pair_weight, source_indices, uniform
        )
    node_acc = np.zeros(n, dtype=np.float64)
    edge_acc = np.zeros(view.num_entries, dtype=np.float64)
    delta = np.zeros(n, dtype=np.float64)
    weights = np.ones(n, dtype=np.float64) if uniform else np.zeros(n)
    for s in source_indices:
        tree = bfs_shortest_path_tree(view, s)
        if not tree.levels:
            continue
        if not uniform:
            s_label = view.nodes[s]
            # Weights are only consumed at reached targets; unreached
            # entries may stay zero.
            weights[:] = 0.0
            for t in np.nonzero(tree.dist >= 0)[0]:
                if t != s:
                    weights[t] = pair_weight(s_label, view.nodes[t])
        delta[:] = 0.0
        sigma = tree.sigma
        for entries, srcs, targets in reversed(tree.levels):
            contrib = (
                sigma[srcs] * (weights[targets] + delta[targets]) / sigma[targets]
            )
            # A CSR entry is a tree edge of exactly one level and appears
            # once in it, so plain fancy-index += is a safe scatter here;
            # sources repeat, so delta needs a true scatter-add.
            edge_acc[entries] += contrib
            delta += np.bincount(srcs, weights=contrib, minlength=n)
        delta[s] = 0.0
        node_acc += delta
    return BetweennessArrays(view, node_acc, edge_acc)


def _bfs_shortest_paths(
    graph: nx.DiGraph, source: Hashable
) -> Tuple[list, Dict[Hashable, list], Dict[Hashable, float], Dict[Hashable, int]]:
    """Single-source BFS returning Brandes' bookkeeping.

    Returns ``(order, predecessors, sigma, dist)`` where ``order`` lists
    nodes in non-decreasing distance, ``sigma`` counts shortest paths.
    """
    sigma: Dict[Hashable, float] = {source: 1.0}
    dist: Dict[Hashable, int] = {source: 0}
    preds: Dict[Hashable, list] = {source: []}
    order = [source]
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0.0
                preds[w] = []
                order.append(w)
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma, dist


def pair_weighted_betweenness(
    graph: nx.DiGraph,
    pair_weight: PairWeight = uniform_pair_weight,
    sources: Optional[Iterable[Hashable]] = None,
) -> BetweennessResult:
    """Brandes' algorithm with per-pair dependency weights.

    Args:
        graph: a :class:`~repro.network.views.GraphView` CSR snapshot (the
            fast vectorised path) or a legacy directed networkx graph;
            shortest paths are hop counts either way.
        pair_weight: ``w(s, r)`` — the weight each ordered pair contributes
            (e.g. ``N_s * p_trans(s, r)`` for transaction rates).
        sources: restrict the outer loop to these sources (defaults to all
            nodes). Restricting is how callers compute "traffic sent by a
            single node" cheaply.

    Returns:
        :class:`BetweennessResult` with node (intermediary-only) and edge
        accumulations.
    """
    if isinstance(graph, GraphView):
        return betweenness_arrays(graph, pair_weight, sources=sources).to_result()
    node_acc: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes}
    edge_acc: Dict[Edge, float] = {}
    if sources is None:
        sources = list(graph.nodes)
    for s in sources:
        if s not in graph:
            continue
        order, preds, sigma, _dist = _bfs_shortest_paths(graph, s)
        # Brandes' accumulation, with the classic "+1" per reached target
        # replaced by "+w(s, target)".
        delta: Dict[Hashable, float] = {v: 0.0 for v in order}
        for w in reversed(order):
            if w == s:
                continue
            coeff = (pair_weight(s, w) + delta[w]) / sigma[w]
            for v in preds[w]:
                contribution = sigma[v] * coeff
                if contribution != 0.0:
                    edge_acc[(v, w)] = edge_acc.get((v, w), 0.0) + contribution
                    delta[v] += contribution
        for v in order:
            if v != s:
                node_acc[v] += delta[v]
    return BetweennessResult(node_acc, edge_acc)


def pair_weighted_betweenness_exact(
    graph: nx.DiGraph,
    pair_weight: PairWeight = uniform_pair_weight,
) -> BetweennessResult:
    """Ground-truth Eq. 2 by explicit shortest-path enumeration.

    Enumerates every shortest path of every ordered pair and accumulates
    fractional traffic. Exponential in the worst case; only for small
    graphs (tests, cross-validation benches).
    """
    if isinstance(graph, GraphView):
        graph = graph.to_networkx()
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
            weight = pair_weight(s, r)
            if weight == 0.0 or not paths:
                continue
            share = weight / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    node_acc[v] += share
                for src, dst in zip(path, path[1:]):
                    edge_acc[(src, dst)] = edge_acc.get((src, dst), 0.0) + share
    return BetweennessResult(node_acc, edge_acc)
