"""Shortest-path payment routing over per-entry adjacency lists.

Implements the route search of Section II-A's multi-hop payment flow: a
payment of size ``x`` from ``s`` to ``r`` follows a shortest path in the
reduced subgraph, where every directed edge on the path holds balance
>= ``x``. The searches take per-node ``[(neighbour, entry)]`` lists of a
:class:`~repro.network.views.GraphView` and per-entry ``kept`` flags (the
entries whose balance can carry ``x``), and the walks pick one shortest
path: the first predecessor at each hop, or one drawn in proportion to
the shortest-path counts (the equal-split shares of Eq. 2). The
large-graph walk draws with :func:`tie_break`: one ``rng.random()`` per
multi-predecessor hop, found by ``bisect_right`` in a python-float CDF of
the counts, which is the draw ``Generator.choice`` makes over them
without its per-call cost. The small-graph search is guided by hop
distances to the receiver: :func:`hop_guide` turns the view's cached
all-pairs distance table into one python row per receiver, once per
view, and a search reads its receiver's row. The simulator
(:mod:`repro.simulation.fastpath`) routes every payment here.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..determinism import ordered_sum
from .views import BfsTree, GraphView, all_pairs_paths

__all__ = [
    "PaymentRouteRng",
    "bidirectional_route",
    "guided_bfs_structure",
    "hop_guide",
    "small_bfs_structure",
    "tie_break",
    "walk_csr",
    "walk_small",
]


class PaymentRouteRng:
    """A lazily-constructed RNG keyed on ``(base seed, payment index)``.

    Payments with a unique shortest path draw nothing, so the (relatively
    expensive) ``default_rng`` seeding only happens for payments that
    actually face a tie-break. Derivation from the pair rather than a
    shared stream makes each payment's draws independent of which other
    payments ran before it.
    """

    __slots__ = ("_key", "_gen")

    def __init__(self, base: int, index: int) -> None:
        self._key = (base, index)
        self._gen: Optional[np.random.Generator] = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.default_rng(self._key)
        return self._gen

    def random(self) -> float:
        return float(self._generator().random())


def small_bfs_structure(
    adj: List[List[Tuple[int, int]]],
    n: int,
    source: int,
    target: int,
    kept: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[float], List[Optional[List[int]]]]:
    """Python BFS bookkeeping ``(dist, sigma, preds)`` for small graphs.

    The search stops once ``target`` pops (its level is complete by
    then), so every node at depth <= ``dist[target]`` is exact. ``preds``
    rows are ``None`` for the source and for nodes never reached. ``kept``
    holds optional per-entry flags: entries whose flag is 0 are skipped,
    which gives the same result, in the same order, as a search over
    adjacency lists with those entries removed.
    """
    dist = [-1] * n
    sigma = [0.0] * n
    # Rows only for discovered nodes: n empty lists per search cost more
    # than a short search itself, mostly in garbage collection.
    preds: List[Optional[List[int]]] = [None] * n
    dist[source] = 0
    sigma[source] = 1.0
    masked = kept is not None
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            break
        next_dist = dist[v] + 1
        for w, entry in adj[v]:
            if masked and not kept[entry]:
                continue
            d = dist[w]
            if d < 0:
                dist[w] = next_dist
                sigma[w] = sigma[v]
                preds[w] = [v]
                queue.append(w)
            elif d == next_dist:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return dist, sigma, preds


def hop_guide(view: GraphView) -> List[List[int]]:
    """Every node's hop distance to every target, as python rows.

    Row ``target`` is column ``target`` of the view's cached
    :func:`all_pairs_paths` distances, with ``-1`` for a node with no
    path to ``target``. One numpy round trip builds every row: on
    BA-100 it costs what ~20 one-column round trips do, and a run
    routes to ~80 receivers.
    """
    dist = all_pairs_paths(view)[0]
    return np.where(dist < np.inf, dist, -1).astype(np.int64).T.tolist()


#: Integer-valued weights whose left-to-right total stays below this add
#: up exactly, in any order.
_EXACT_TOTAL = float(2 ** 53)


def tie_break(candidates: Sequence[int], weights: Sequence[float], rng) -> int:
    """One of ``candidates``, drawn with one ``rng.random()`` in
    proportion to the integer-valued ``weights`` (shortest-path counts).

    Returns what ``rng.choice(np.array(candidates), p=w / w.sum())``
    returns for ``w = np.array(weights)``, from the same draw, without
    numpy's ~13 µs per call. ``choice`` divides each weight by the total,
    adds the shares left to right, divides by the last partial sum and
    takes ``searchsorted(draw, side="right")``; the same float operations
    run here. Only the total could come out other bits, since numpy adds
    pairwise: integers whose left-to-right total stays below 2**53 add up
    exactly in any order, so only a larger total is taken from numpy.
    """
    total = 0.0
    for weight in weights:
        total += weight
    if not total < _EXACT_TOTAL:
        total = float(np.array(weights).sum())
    shares = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight / total
        shares.append(cumulative)
    draw = rng.random()
    return candidates[bisect_right([share / cumulative for share in shares], draw)]


def guided_bfs_structure(
    adj: List[List[Tuple[int, int]]],
    n: int,
    source: int,
    target: int,
    kept: Sequence[int],
    hops_to_r: Sequence[int],
) -> Tuple[List[int], List[float], Sequence[Optional[List[int]]]]:
    """:func:`small_bfs_structure` restricted to the ``source -> target``
    shortest-path DAG of the kept entries.

    ``hops_to_r`` is row ``target`` of :func:`hop_guide`, the hop
    distances to ``target`` over *all* entries. A
    level-synchronous BFS over the kept entries admits node ``w`` at
    level ``k`` only if ``k + hops_to_r[w] <= bound``. Kept entries are a
    subset of all entries, so ``hops_to_r`` never exceeds the kept
    distance to ``target``: with ``bound`` at least the kept distance
    ``D``, every node on a kept shortest path is admitted at its true
    level, through all of its kept predecessors, in the order
    :func:`small_bfs_structure` pops them. ``dist[target]``, and ``sigma``
    and ``preds`` on the DAG, are therefore the same values, and
    :func:`walk_small` returns the same path with the same draws.

    The first pass takes ``bound = hops_to_r[source]``; a miss retries
    once with the smallest ``k + hops_to_r[w]`` it pruned. A miss that
    pruned nothing proves ``target`` unreachable; a second miss falls
    back to :func:`small_bfs_structure`, so no route runs more than two
    pruned passes.
    """
    bound = hops_to_r[source]
    for _ in range(2):
        dist = [-1] * n
        sigma = [0.0] * n
        # Rows only for admitted nodes: n empty lists per search cost more
        # than the search itself, mostly in garbage collection.
        preds: List[Optional[List[int]]] = [None] * n
        dist[source] = 0
        sigma[source] = 1.0
        if bound < 0:
            # No path even over all entries.
            return dist, sigma, preds
        # A kept path has at most n - 1 hops, so a smallest pruned value
        # of n or more (or none at all) proves it absent.
        pruned = n
        level = [source]
        k = 0
        while level and dist[target] < 0:
            k += 1
            fresh: List[int] = []
            for v in level:
                count = sigma[v]
                for w, entry in adj[v]:
                    if not kept[entry]:
                        continue
                    d = dist[w]
                    if d < 0:
                        h = hops_to_r[w]
                        if h < 0:
                            continue
                        if k + h > bound:
                            if k + h < pruned:
                                pruned = k + h
                            continue
                        dist[w] = k
                        sigma[w] = count
                        preds[w] = [v]
                        fresh.append(w)
                    elif d == k:
                        sigma[w] += count
                        preds[w].append(v)
            level = fresh
        if dist[target] >= 0 or pruned >= n:
            return dist, sigma, preds
        bound = pruned
    return small_bfs_structure(adj, n, source, target, kept)


def walk_small(
    dist: List[int],
    sigma: List[float],
    preds: Sequence[Optional[List[int]]],
    source: int,
    target: int,
    path_selection: str,
    rng,
) -> Optional[List[int]]:
    """Backward predecessor walk over :func:`small_bfs_structure` or
    :func:`guided_bfs_structure` output.

    Returns the path as node indices (source first), or ``None`` when the
    target is unreachable. ``"random"`` selection draws one uniform per
    multi-predecessor hop and walks the sigma prefix sums — uniform over
    all shortest paths (the Eq. 2 equal-split shares).
    """
    if dist[target] < 0:
        return None
    path = [target]
    current = target
    while current != source:
        options = preds[current]
        if path_selection == "random" and len(options) > 1:
            total = ordered_sum(sigma[v] for v in options)
            draw = float(rng.random()) * total
            chosen = options[-1]
            for v in options:
                draw -= sigma[v]
                if draw <= 0.0:
                    chosen = v
                    break
        else:
            chosen = options[0]
        path.append(chosen)
        current = chosen
    return path[::-1]


def walk_csr(
    view: GraphView,
    tree: BfsTree,
    source: int,
    target: int,
    path_selection: str,
    rng,
) -> Optional[List[int]]:
    """Backward predecessor walk over a CSR :class:`BfsTree`.

    ``tree`` is :func:`~repro.network.views.bfs_shortest_path_tree`
    from ``source`` over ``view``. Predecessor rows are sorted by source
    index, so ``"first"`` takes the smallest-index predecessor and
    ``"random"`` draws one ``rng.choice`` weighted by ``sigma`` per
    multi-predecessor hop. That numpy call stays on purpose: this walk is
    the oracle :func:`bidirectional_route` and its :func:`tie_break` are
    checked against (``tests/property/test_prop_route_oracle.py``).
    """
    if tree.dist[target] < 0:
        return None
    rev_indptr, rev_indices, _ = view.reverse_adjacency()
    path = [target]
    current = target
    while current != source:
        preds = rev_indices[rev_indptr[current]:rev_indptr[current + 1]]
        preds = preds[tree.dist[preds] == tree.dist[current] - 1]
        if path_selection == "random" and preds.size > 1:
            sigma = tree.sigma[preds]
            chosen = int(rng.choice(preds, p=sigma / sigma.sum()))
        else:
            chosen = int(preds[0])
        path.append(chosen)
        current = chosen
    return path[::-1]


def bidirectional_route(
    adj: List[List[Tuple[int, int]]],
    radj: List[List[Tuple[int, int]]],
    kept: Sequence[int],
    source: int,
    target: int,
    path_selection: str,
    rng,
) -> Optional[List[int]]:
    """A shortest ``source -> target`` path over the kept entries.

    Returns the same path, drawing the same random numbers, as
    :func:`~repro.network.views.bfs_shortest_path_tree` plus
    :func:`walk_csr` over a view holding only the entries whose ``kept``
    flag is nonzero; ``None`` when there is no path. ``adj`` and ``radj``
    are per-node ``[(successor, entry)]`` and ``[(predecessor, entry)]``
    lists, both sorted by neighbour index (:meth:`GraphView.adjacency_lists` and
    :meth:`GraphView.reverse_adjacency_lists`).

    Only the s-t shortest-path DAG is built. A level-synchronous BFS
    grows from both ends, expanding the side whose frontier has the
    smaller total degree, until a completed level meets the other side:
    at forward level ``rf`` and backward level ``rb`` this fixes the
    distance ``D = rf + rb``, and the DAG nodes at level ``rf`` are the
    nodes with ``df == rf`` and ``db == rb``. Forward path counts
    ``sigma`` are exact up to ``rf``; past it they flow along the
    successor lists the backward search recorded, labelling only DAG
    nodes with their distance from ``source``. Every shortest path from
    ``source`` to a DAG node stays inside the DAG, so the counts —
    integers, exact in float64 — equal a full BFS's. The walk back from
    ``target`` draws each multi-predecessor hop with :func:`tie_break`
    over those counts: the pick and the draw of :func:`walk_csr`'s
    ``rng.choice``, in python floats.
    """
    n = len(adj)
    # df: hop distance from the source; after the search, the DAG label.
    df = [-1] * n
    db = [-1] * n
    sigma = [0.0] * n
    df[source] = 0
    sigma[source] = 1.0
    db[target] = 0
    # succ[y]: kept successors u of y with db[u] == db[y] - 1.
    succ: Dict[int, List[int]] = {}
    forward, backward = [source], [target]
    forward_degree, backward_degree = len(adj[source]), len(radj[target])
    rf = rb = 0
    met = False
    while not met:
        fresh: List[int] = []
        degree = 0
        if forward_degree <= backward_degree:
            rf += 1
            for v in forward:
                count = sigma[v]
                for w, entry in adj[v]:
                    if not kept[entry]:
                        continue
                    d = df[w]
                    if d < 0:
                        df[w] = rf
                        sigma[w] = count
                        fresh.append(w)
                        degree += len(adj[w])
                        if db[w] >= 0:
                            met = True
                    elif d == rf:
                        sigma[w] += count
            forward, forward_degree = fresh, degree
        else:
            rb += 1
            for u in backward:
                for y, entry in radj[u]:
                    if not kept[entry]:
                        continue
                    d = db[y]
                    if d < 0:
                        db[y] = rb
                        succ[y] = [u]
                        fresh.append(y)
                        degree += len(radj[y])
                        if df[y] >= 0:
                            met = True
                    elif d == rb:
                        succ[y].append(u)
            backward, backward_degree = fresh, degree
        if not fresh:
            return None
    # Whichever side grew last, the forward frontier holds level rf.
    level = [w for w in forward if db[w] == rb]
    for label in range(rf + 1, rf + rb + 1):
        deeper: List[int] = []
        for y in level:
            count = sigma[y]
            for u in succ[y]:
                if df[u] < 0:
                    df[u] = label
                    deeper.append(u)
                sigma[u] += count
        level = deeper
    # Any kept predecessor one level above a DAG node is on the DAG too,
    # so forward labels of off-DAG nodes never match below.
    path = [target]
    current = target
    while current != source:
        want = df[current] - 1
        preds = [
            p for p, entry in radj[current] if df[p] == want and kept[entry]
        ]
        if path_selection == "random" and len(preds) > 1:
            current = tie_break(preds, [sigma[p] for p in preds], rng)
        else:
            current = preds[0]
        path.append(current)
    return path[::-1]
