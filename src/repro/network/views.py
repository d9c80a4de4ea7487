"""Immutable CSR snapshots of a :class:`~repro.network.graph.ChannelGraph`.

Every analytic hot path — pair-weighted betweenness (Eq. 2/Eq. 3),
capacity-aware routing (Section II-A), the reduced subgraph ``G'``
(Section II-B), diameter and equilibrium checks — operates on *reads* of
the channel graph. :class:`GraphView` freezes one such read into compressed
sparse row (CSR) arrays:

* ``indptr`` / ``indices`` — the adjacency structure, one row per node,
  targets sorted by node index;
* ``edge_ids`` — per CSR entry, the id of the *channel pair slot* shared
  by both directions of the same ``{u, v}`` pair; ``pair_channels`` maps a
  slot back to the concrete channel ids, so algorithms can work purely on
  integers and translate to channels only at commit time;
* ``balances`` / ``capacities`` / ``fee_base`` / ``fee_rate`` — parallel
  float arrays with the aggregated per-direction balance, the pair
  capacity, and the cheapest per-channel fee policy of each entry.

Views are produced by :meth:`ChannelGraph.view` and cached keyed on the
graph's mutation version (structural *and* balance mutations bump it), so
repeated algorithm calls between mutations are zero-copy. A view never
changes: mutate the graph and ask for a new view instead.

The module also provides the vectorised BFS primitives shared by the
algorithm ports: frontier expansion, hop distances, and Brandes'
``(dist, sigma, tree-edges)`` bookkeeping, all as numpy array passes;
and :func:`all_pairs_paths`, the hop distances and shortest-path counts
of every ordered pair from one dense level-synchronous pass, cached on
the view as read-only arrays.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from ..errors import InvalidParameter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    import networkx as nx

    from .graph import ChannelGraph

#: Below this many nodes, betweenness and the simulator's route guides
#: read the view's cached :func:`all_pairs_paths` tables; from here up,
#: betweenness runs one CSR pass per source and routes take the
#: bidirectional search, which needs no per-view table.
SMALL_GRAPH_NODES = 150

__all__ = [
    "SMALL_GRAPH_NODES",
    "DENSE_PATHS_NODES",
    "GraphView",
    "BfsTree",
    "build_view",
    "expand_frontier",
    "bfs_distances",
    "bfs_shortest_path_tree",
    "all_pairs_paths",
    "shortest_path_indices",
]


class GraphView:
    """One immutable, int-indexed CSR snapshot of a channel graph.

    Attributes:
        nodes: node labels, index -> label (graph insertion order; stable
            across ``reduced`` values at the same graph version).
        node_index: label -> index (inverse of ``nodes``).
        indptr: ``int64[n + 1]`` CSR row pointers.
        indices: ``int64[m]`` CSR target node indices (sorted per row).
        edge_ids: ``int64[m]`` channel-pair slot per entry; both directions
            of the same ``{u, v}`` pair share one slot.
        pair_channels: slot -> tuple of channel ids between that pair.
        balances: ``float64[m]`` aggregated source->target balance.
        capacities: ``float64[m]`` aggregated pair capacity.
        fee_base / fee_rate: ``float64[m]`` the entry's cheapest
            per-channel fee policy, judged at unit amount (zero unless
            channels carry explicit fee params).
        upfront_base / upfront_rate: ``float64[m]`` the per-attempt
            (upfront) side of the same winning channel's two-sided fee
            policy — carried alongside the success-side columns, never
            mixed across channels of one pair.
        directed: whether entries are per-direction (True) or the
            symmetric undirected adjacency (False).
        min_balance: the reduced-subgraph threshold the view was built
            with (``0.0`` = unreduced).
        version: the graph mutation version the view snapshot belongs to.
    """

    __slots__ = (
        "nodes",
        "node_index",
        "indptr",
        "indices",
        "edge_ids",
        "pair_channels",
        "balances",
        "capacities",
        "fee_base",
        "fee_rate",
        "upfront_base",
        "upfront_rate",
        "directed",
        "min_balance",
        "version",
        "_reverse",
        "_nx_cache",
        "_entry_rows",
        "_adj_lists",
        "_all_pairs",
    )

    def __init__(
        self,
        nodes: Tuple[Hashable, ...],
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_ids: np.ndarray,
        pair_channels: Tuple[Tuple[str, ...], ...],
        balances: np.ndarray,
        capacities: np.ndarray,
        fee_base: np.ndarray,
        fee_rate: np.ndarray,
        upfront_base: np.ndarray,
        upfront_rate: np.ndarray,
        directed: bool,
        min_balance: float,
        version: int,
        node_index: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        self.nodes = nodes
        self.node_index = (
            node_index
            if node_index is not None
            else {node: i for i, node in enumerate(nodes)}
        )
        for array in (indptr, indices, edge_ids, balances, capacities,
                      fee_base, fee_rate, upfront_base, upfront_rate):
            array.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.edge_ids = edge_ids
        self.pair_channels = pair_channels
        self.balances = balances
        self.capacities = capacities
        self.fee_base = fee_base
        self.fee_rate = fee_rate
        self.upfront_base = upfront_base
        self.upfront_rate = upfront_rate
        self.directed = directed
        self.min_balance = min_balance
        self.version = version
        self._reverse: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._entry_rows: Optional[np.ndarray] = None
        self._adj_lists: Optional[List[List[Tuple[int, int]]]] = None
        self._all_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- shape ----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_entries(self) -> int:
        """Number of CSR adjacency entries (directed: aggregated directed
        edges; undirected: twice the number of collapsed pairs)."""
        return int(self.indices.shape[0])

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Hashable) -> bool:
        return node in self.node_index

    def index_of(self, node: Hashable) -> int:
        try:
            return self.node_index[node]
        except KeyError:
            raise InvalidParameter(f"{node!r} is not in this view") from None

    # -- adjacency ------------------------------------------------------------

    def successors(self, index: int) -> np.ndarray:
        """Target indices adjacent to node ``index`` (read-only slice)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def entry_rows(self) -> np.ndarray:
        """``int64[m]`` source node index of every CSR entry (cached)."""
        if self._entry_rows is None:
            rows = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64),
                np.diff(self.indptr),
            )
            rows.setflags(write=False)
            self._entry_rows = rows
        return self._entry_rows

    def adjacency_lists(self) -> List[List[Tuple[int, int]]]:
        """Per-node ``[(target, entry), ...]`` python lists (cached).

        The small-graph fast paths (where per-call numpy overhead exceeds
        the work) iterate these instead of the CSR arrays.
        """
        if self._adj_lists is None:
            indices = self.indices.tolist()
            indptr = self.indptr.tolist()
            self._adj_lists = [
                list(zip(indices[indptr[i]:indptr[i + 1]],
                         range(indptr[i], indptr[i + 1])))
                for i in range(self.num_nodes)
            ]
        return self._adj_lists

    def reverse_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSC-style predecessors ``(rev_indptr, rev_indices, rev_entries)``.

        ``rev_entries[k]`` is the forward CSR entry of the edge whose
        *target* row is being enumerated, so per-entry arrays (balances,
        edge ids) can be gathered while walking predecessors. Built lazily
        once per view.
        """
        if self._reverse is None:
            order = np.argsort(self.indices, kind="stable")
            rev_indices = self.entry_rows()[order]
            rev_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.add.at(rev_indptr, self.indices + 1, 1)
            np.cumsum(rev_indptr, out=rev_indptr)
            for array in (rev_indptr, rev_indices, order):
                array.setflags(write=False)
            self._reverse = (rev_indptr, rev_indices, order)
        return self._reverse

    def reverse_adjacency_lists(self) -> List[List[Tuple[int, int]]]:
        """Per-node ``[(predecessor, entry), ...]`` python lists.

        The list form of :meth:`reverse_adjacency`: each row is sorted by
        predecessor index, and ``entry`` is the forward CSR entry of the
        ``predecessor -> node`` edge.
        """
        rev_indptr, rev_indices, rev_entries = (
            array.tolist() for array in self.reverse_adjacency()
        )
        return [
            list(zip(rev_indices[rev_indptr[i]:rev_indptr[i + 1]],
                     rev_entries[rev_indptr[i]:rev_indptr[i + 1]]))
            for i in range(self.num_nodes)
        ]

    # -- conversion -----------------------------------------------------------

    def to_networkx(self) -> "nx.Graph":
        """Materialise the view as the equivalent networkx graph.

        Matches the historical ``ChannelGraph.to_undirected()`` /
        ``to_directed()`` output: all nodes present, ``capacity`` edge
        attribute on undirected views, ``balance`` on directed views. Each
        call builds a fresh graph the caller owns; networkx is imported on
        the first call.
        """
        import networkx as nx

        rows = self.entry_rows()
        graph: "nx.Graph"
        if self.directed:
            graph = nx.DiGraph()
            graph.add_nodes_from(self.nodes)
            for pos in range(self.num_entries):
                graph.add_edge(
                    self.nodes[rows[pos]],
                    self.nodes[self.indices[pos]],
                    balance=float(self.balances[pos]),
                )
        else:
            graph = nx.Graph()
            graph.add_nodes_from(self.nodes)
            for pos in range(self.num_entries):
                src, dst = int(rows[pos]), int(self.indices[pos])
                if src < dst:
                    graph.add_edge(
                        self.nodes[src],
                        self.nodes[dst],
                        capacity=float(self.capacities[pos]),
                    )
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (
            f"GraphView({kind}, nodes={self.num_nodes}, "
            f"entries={self.num_entries}, min_balance={self.min_balance}, "
            f"version={self.version})"
        )


def build_view(
    graph: "ChannelGraph", directed: bool, min_balance: float
) -> GraphView:
    """Freeze ``graph`` into a :class:`GraphView`.

    Parallel channels are aggregated per direction (directed) or per pair
    (undirected), exactly like the historical networkx views; directed
    entries whose aggregated balance is strictly below ``min_balance`` are
    dropped (the reduced subgraph ``G'``).
    """
    if min_balance < 0:
        raise InvalidParameter("min_balance must be >= 0")
    if not directed and min_balance != 0.0:
        raise InvalidParameter("undirected views cannot be reduced")
    nodes = graph.nodes
    node_index = {node: i for i, node in enumerate(nodes)}

    # Aggregate channels into pair slots keyed by sorted index pairs.
    pair_slot: Dict[Tuple[int, int], int] = {}
    pair_ids: List[List[str]] = []
    pair_capacity: List[float] = []
    pair_balance: List[Tuple[float, float]] = []  # (lo -> hi, hi -> lo)
    pair_fees: List[Tuple[float, float]] = []
    pair_upfront: List[Tuple[float, float]] = []
    for channel in graph.channels:
        u, v = node_index[channel.u], node_index[channel.v]
        lo, hi = (u, v) if u < v else (v, u)
        slot = pair_slot.get((lo, hi))
        balance_lo = channel.balance(nodes[lo])
        balance_hi = channel.balance(nodes[hi])
        fee_base = getattr(channel, "fee_base", 0.0)
        fee_rate = getattr(channel, "fee_rate", 0.0)
        upfront_base = getattr(channel, "upfront_base", 0.0)
        upfront_rate = getattr(channel, "upfront_rate", 0.0)
        if slot is None:
            pair_slot[(lo, hi)] = len(pair_ids)
            pair_ids.append([channel.channel_id])
            pair_capacity.append(channel.capacity)
            pair_balance.append((balance_lo, balance_hi))
            pair_fees.append((fee_base, fee_rate))
            pair_upfront.append((upfront_base, upfront_rate))
        else:
            pair_ids[slot].append(channel.channel_id)
            pair_capacity[slot] += channel.capacity
            old_lo, old_hi = pair_balance[slot]
            pair_balance[slot] = (old_lo + balance_lo, old_hi + balance_hi)
            # Keep the whole policy of the channel that is cheapest for a
            # unit payment (a component-wise min would synthesize a policy
            # no channel actually offers). The upfront side travels with
            # the winning channel, never mixed across channels.
            old_base, old_rate = pair_fees[slot]
            if fee_base + fee_rate < old_base + old_rate:
                pair_fees[slot] = (fee_base, fee_rate)
                pair_upfront[slot] = (upfront_base, upfront_rate)

    # Expand slots into directed entries (both orientations), filtering
    # reduced-out directions, then sort into CSR order.
    srcs: List[int] = []
    dsts: List[int] = []
    slots: List[int] = []
    balances: List[float] = []
    for (lo, hi), slot in pair_slot.items():
        forward, backward = pair_balance[slot]
        if directed:
            if forward >= min_balance:
                srcs.append(lo); dsts.append(hi); slots.append(slot)
                balances.append(forward)
            if backward >= min_balance:
                srcs.append(hi); dsts.append(lo); slots.append(slot)
                balances.append(backward)
        else:
            srcs.append(lo); dsts.append(hi); slots.append(slot)
            balances.append(forward)
            srcs.append(hi); dsts.append(lo); slots.append(slot)
            balances.append(backward)

    n = len(nodes)
    src_arr = np.asarray(srcs, dtype=np.int64)
    dst_arr = np.asarray(dsts, dtype=np.int64)
    slot_arr = np.asarray(slots, dtype=np.int64)
    balance_arr = np.asarray(balances, dtype=np.float64)
    order = np.lexsort((dst_arr, src_arr))
    src_arr = src_arr[order]
    dst_arr = dst_arr[order]
    slot_arr = slot_arr[order]
    balance_arr = balance_arr[order]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src_arr + 1, 1)
    np.cumsum(indptr, out=indptr)

    capacity_table = np.asarray(pair_capacity, dtype=np.float64)
    fee_table = np.asarray(pair_fees, dtype=np.float64).reshape(-1, 2)
    upfront_table = np.asarray(pair_upfront, dtype=np.float64).reshape(-1, 2)
    if slot_arr.size:
        capacities = capacity_table[slot_arr]
        fee_base = fee_table[slot_arr, 0]
        fee_rate = fee_table[slot_arr, 1]
        upfront_base = upfront_table[slot_arr, 0]
        upfront_rate = upfront_table[slot_arr, 1]
    else:
        capacities = np.zeros(0, dtype=np.float64)
        fee_base = np.zeros(0, dtype=np.float64)
        fee_rate = np.zeros(0, dtype=np.float64)
        upfront_base = np.zeros(0, dtype=np.float64)
        upfront_rate = np.zeros(0, dtype=np.float64)

    return GraphView(
        nodes=nodes,
        indptr=indptr,
        indices=dst_arr,
        edge_ids=slot_arr,
        pair_channels=tuple(tuple(ids) for ids in pair_ids),
        balances=balance_arr,
        capacities=capacities,
        fee_base=fee_base,
        fee_rate=fee_rate,
        upfront_base=upfront_base,
        upfront_rate=upfront_rate,
        directed=directed,
        min_balance=float(min_balance),
        version=graph.version,
        node_index=node_index,
    )


# -- vectorised BFS primitives -------------------------------------------------


def expand_frontier(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All out-edges of ``frontier`` as ``(srcs, entries, targets)`` arrays."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    cum = np.cumsum(counts)
    entries = np.repeat(starts - (cum - counts), counts) + np.arange(
        total, dtype=np.int64
    )
    srcs = np.repeat(frontier, counts)
    return srcs, entries, indices[entries]


def bfs_distances(view: GraphView, source: int) -> np.ndarray:
    """Hop distances from ``source`` (``-1`` = unreachable), vectorised."""
    dist = np.full(view.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        _, _, targets = expand_frontier(view.indptr, view.indices, frontier)
        fresh = targets[dist[targets] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        level += 1
        dist[frontier] = level
    return dist


def shortest_path_indices(
    view: GraphView, source: int, target: int
) -> Optional[List[int]]:
    """A deterministic shortest path ``source -> target`` as node indices.

    Walks the predecessor DAG backward from ``target``, always taking the
    smallest-index predecessor. Returns ``None`` when no path exists.
    """
    dist = bfs_distances(view, source)
    if dist[target] < 0:
        return None
    rev_indptr, rev_indices, _ = view.reverse_adjacency()
    path = [target]
    current = target
    while current != source:
        preds = rev_indices[rev_indptr[current]:rev_indptr[current + 1]]
        preds = preds[dist[preds] == dist[current] - 1]
        current = int(preds[0])
        path.append(current)
    return path[::-1]


class BfsTree:
    """Brandes' single-source bookkeeping over CSR arrays.

    Attributes:
        dist: hop distance per node (``-1`` unreachable).
        sigma: shortest-path counts per node.
        levels: per BFS level (deepest last), the shortest-path tree edges
            crossing into that level as ``(entries, srcs, targets)``.
    """

    __slots__ = ("dist", "sigma", "levels")

    def __init__(
        self,
        dist: np.ndarray,
        sigma: np.ndarray,
        levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self.dist = dist
        self.sigma = sigma
        self.levels = levels


def bfs_shortest_path_tree(
    view: GraphView,
    source: int,
    target: Optional[int] = None,
) -> BfsTree:
    """Single-source BFS with shortest-path counts and tree edges.

    With ``target`` given, stops once the target's BFS level is complete
    (its ``sigma`` and every ancestor's bookkeeping are final by then);
    deeper levels stay unexplored, which is what per-payment routing
    wants.
    """
    n = view.num_nodes
    indptr, indices = view.indptr, view.indices
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    level = 0
    seen = np.zeros(n, dtype=bool)
    while frontier.size:
        srcs, entries, targets = expand_frontier(indptr, indices, frontier)
        if targets.size == 0:
            break
        fresh = targets[dist[targets] < 0]
        if fresh.size:
            dist[fresh] = level + 1
        tree = dist[targets] == level + 1
        if not tree.any():
            break
        tree_srcs = srcs[tree]
        tree_targets = targets[tree]
        # bincount is the fastest scatter-add for repeated targets.
        sigma += np.bincount(
            tree_targets, weights=sigma[tree_srcs], minlength=n
        )
        levels.append((entries[tree], tree_srcs, tree_targets))
        if target is not None and dist[target] == level + 1:
            break
        if fresh.size:
            seen[:] = False
            seen[fresh] = True
            frontier = np.nonzero(seen)[0]
        else:
            frontier = fresh
        level += 1
    return BfsTree(dist, sigma, levels)


#: Largest view :func:`all_pairs_paths` runs its dense pass on; larger
#: views take one BFS per source. On a 2-core x86_64 VM, directed BA
#: views, the dense pass against the per-source BFS (medians): n=30
#: 0.06 vs 2.8 ms, n=200 4.5 vs 32 ms, n=500 50 vs 109 ms, n=700 111 vs
#: 170 ms, n=1000 278 vs 290 ms. The dense pass also holds six
#: ``(n, n)`` float arrays at once, so it stops short of the tie.
DENSE_PATHS_NODES = 800

#: Path counts at or above this may be inexact in float64.
_EXACT_COUNTS = float(2 ** 53)


def all_pairs_paths(view: GraphView) -> Tuple[np.ndarray, np.ndarray]:
    """``(D, Σ)``: hop distances (``inf`` = unreachable) and shortest-path
    counts between every ordered pair of ``view``'s nodes, as read-only
    ``(n, n)`` float arrays, built on the first call and cached on the
    view.

    Up to :data:`DENSE_PATHS_NODES` nodes, one dense pass finds every
    source's BFS level at once: ``F_k = F_{k-1} @ A``, with the cells
    found at an earlier level zeroed, where ``A`` counts the view's
    entries per ordered pair. The counts are integers, so they are exact
    in float64, and equal the BFS's, until one reaches 2^53; then, and
    on larger views, :func:`bfs_shortest_path_tree` runs per source.
    """
    tables = view._all_pairs
    if tables is not None:
        return tables
    n = view.num_nodes
    tables = _dense_paths(view) if n <= DENSE_PATHS_NODES else None
    if tables is None:
        dist = np.empty((n, n))
        sigma = np.empty((n, n))
        for source in range(n):
            tree = bfs_shortest_path_tree(view, source)
            dist[source], sigma[source] = tree.dist, tree.sigma
        dist[dist < 0] = np.inf
        tables = dist, sigma
    for table in tables:
        table.setflags(write=False)
    view._all_pairs = tables
    return tables


def _dense_paths(view: GraphView) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The dense pass of :func:`all_pairs_paths`; ``None`` once a count
    reaches 2^53."""
    n = view.num_nodes
    adjacency = np.zeros((n, n))
    np.add.at(adjacency, (view.entry_rows(), view.indices), 1.0)
    frontier = np.eye(n)
    sigma = frontier.copy()
    dist = np.where(frontier > 0, 0.0, np.inf)
    unseen = 1.0 - frontier
    remaining = n * n - n
    level = 0
    while remaining:
        level += 1
        frontier = frontier @ adjacency
        frontier *= unseen
        fresh = frontier > 0
        found = int(np.count_nonzero(fresh))
        if not found:
            break
        dist[fresh] = level
        sigma += frontier
        unseen[fresh] = 0.0
        remaining -= found
    # Each cell's count lands in sigma once, so one check covers them all.
    if sigma.max(initial=0.0) >= _EXACT_COUNTS:
        return None
    return dist, sigma
