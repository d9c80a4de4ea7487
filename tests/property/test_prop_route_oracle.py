"""Property-based tests: the batched backend's route searches against the
event engine's.

The event engine's ``Router`` routes a payment of size ``x`` with
:func:`bfs_shortest_path_tree` plus :func:`walk_csr` over
``graph.view(directed=True, reduced=x)`` from 150 nodes on, and with
:func:`small_bfs_structure` plus :func:`walk_small` below that. The
batched backend routes over the unreduced view with per-entry flags
``(balances >= x).tobytes()``: :func:`bidirectional_route` from 150
nodes on, :func:`guided_bfs_structure` plus :func:`walk_small` below
that, guided by a row of :func:`hop_guide` (the unreduced view's all-pairs
distance table as one python row per receiver). Each batched search must give the same path,
the same ``None`` verdict and the same RNG draws as its event-engine
counterpart on any graph, so the functions are called directly here, on
small graphs too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import ChannelGraph
from repro.network.routing import (
    bidirectional_route,
    guided_bfs_structure,
    hop_guide,
    small_bfs_structure,
    walk_csr,
    walk_small,
)
from repro.network.views import bfs_shortest_path_tree
from repro.snapshots.synthetic import barabasi_albert_snapshot

#: Few distinct balances, so ties between shortest paths are common and
#: zero leaves a channel depleted in one direction.
BALANCES = (0.0, 0.0, 1.0, 2.0, 4.0)
AMOUNTS = st.sampled_from([0.5, 1.5, 3.0])


@st.composite
def payments(draw):
    """``(graph, sender, receiver, amount)`` on nodes ``0..n-1``.

    The channels are either a random graph or a grid with random
    channels removed. Each channel survives with the drawn density, so
    sparse draws leave the graph disconnected; grids keep paths long
    while holding many of equal length. Half the draws force a channel
    between sender and receiver.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        n = draw(st.integers(2, 16))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density *= 0.6
    else:
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 6))
        n = rows * cols
        pairs = [(i, i + 1) for i in range(n) if (i + 1) % cols]
        pairs += [(i, i + cols) for i in range(n - cols)]
        density = 0.5 + density / 2
    sender, receiver = draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    forced = set()
    if draw(st.booleans()):
        forced.add((min(sender, receiver), max(sender, receiver)))
    graph = ChannelGraph()
    for node in range(n):
        graph.add_node(node)
    for u, v in sorted(set(pairs) | forced):
        if (u, v) in forced or rng.random() < density:
            graph.add_channel(
                u, v, float(rng.choice(BALANCES)), float(rng.choice(BALANCES))
            )
    return graph, sender, receiver, draw(AMOUNTS)


def oracle_route(graph, sender, receiver, amount, selection, rng):
    """The event engine's search: numpy BFS and walk on the reduced view."""
    reduced = graph.view(directed=True, reduced=amount)
    tree = bfs_shortest_path_tree(reduced, sender, target=receiver)
    return walk_csr(reduced, tree, sender, receiver, selection, rng)


def batched_route(graph, sender, receiver, amount, selection, rng):
    full = graph.view(directed=True)
    kept = (full.balances >= amount).tobytes()
    return bidirectional_route(
        full.adjacency_lists(), full.reverse_adjacency_lists(), kept,
        sender, receiver, selection, rng,
    )


def assert_same_route(graph, sender, receiver, amount, selection, seed):
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = oracle_route(graph, sender, receiver, amount, selection, expected_rng)
    actual = batched_route(graph, sender, receiver, amount, selection, actual_rng)
    assert actual == expected
    # Same draws: both streams advanced by the same amount.
    assert actual_rng.random() == expected_rng.random()
    return actual


@given(
    payment=payments(),
    selection=st.sampled_from(["random", "first"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_bidirectional_route_matches_router_search(payment, selection, seed):
    graph, sender, receiver, amount = payment
    assert_same_route(graph, sender, receiver, amount, selection, seed)


@given(payment=payments())
@settings(max_examples=200, deadline=None)
def test_small_bfs_kept_matches_masked_lists(payment):
    graph, sender, receiver, amount = payment
    full = graph.view(directed=True)
    kept = (full.balances >= amount).tobytes()
    adj = full.adjacency_lists()
    masked = [[(w, entry) for w, entry in row if kept[entry]] for row in adj]
    n = full.num_nodes
    assert small_bfs_structure(adj, n, sender, receiver, kept) == (
        small_bfs_structure(masked, n, sender, receiver)
    )


@given(
    payment=payments(),
    selection=st.sampled_from(["random", "first"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_guided_search_matches_small_bfs(payment, selection, seed):
    graph, sender, receiver, amount = payment
    full = graph.view(directed=True)
    kept = (full.balances >= amount).tobytes()
    adj = full.adjacency_lists()
    n = full.num_nodes
    hops = hop_guide(full)[receiver]
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = walk_small(
        *small_bfs_structure(adj, n, sender, receiver, kept),
        sender, receiver, selection, expected_rng,
    )
    actual = walk_small(
        *guided_bfs_structure(adj, n, sender, receiver, kept, hops),
        sender, receiver, selection, actual_rng,
    )
    assert actual == expected
    assert actual_rng.random() == expected_rng.random()


def test_guided_search_matches_small_bfs_on_ba60():
    """Payments on a depleted BA-60 graph: many ties between shortest
    paths, and every exit of the guided search."""
    graph = barabasi_albert_snapshot(60, capacity_mu=1.0, seed=3)
    full = graph.view(directed=True)
    assert full.nodes[:3] == ("n0", "n1", "n2")
    adj, n = full.adjacency_lists(), 60
    guides = hop_guide(full)
    rng = np.random.default_rng(5)
    lengths = set()
    for _ in range(300):
        sender, receiver = (int(i) for i in rng.choice(n, 2, replace=False))
        kept = (full.balances >= float(rng.choice([0.5, 2.0, 6.0]))).tobytes()
        hops = guides[receiver]
        guided = guided_bfs_structure(adj, n, sender, receiver, kept, hops)
        plain = small_bfs_structure(adj, n, sender, receiver, kept)
        assert guided[0][receiver] == plain[0][receiver]
        assert guided[1][receiver] == plain[1][receiver]
        for selection in ("random", "first"):
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            path = walk_small(*guided, sender, receiver, selection, ours)
            assert path == walk_small(*plain, sender, receiver, selection, theirs)
            assert ours.random() == theirs.random()
        if plain[0][receiver] >= 0:
            lengths.add(plain[0][receiver] - hops[sender])
    # Routes as short as the unmasked distance and longer ones: the
    # first pass, and the second pass or the fallback.
    assert 0 in lengths and len(lengths) > 1


def test_bidirectional_route_matches_router_search_on_ba200():
    """Payments on a depleted BA-200 graph: long paths, many ties, and
    frontiers cut by the balance mask."""
    graph = barabasi_albert_snapshot(200, capacity_mu=1.0, seed=3)
    # Node n{i} sits at view index i, so the searches take plain indices.
    assert graph.view(directed=True).nodes[:3] == ("n0", "n1", "n2")
    rng = np.random.default_rng(11)
    found = missing = 0
    for _ in range(300):
        sender, receiver = (int(i) for i in rng.choice(200, 2, replace=False))
        amount = float(rng.choice([0.5, 2.0, 6.0]))
        for selection in ("random", "first"):
            path = assert_same_route(
                graph, sender, receiver, amount, selection,
                seed=int(rng.integers(2**32)),
            )
            if path is None:
                missing += 1
            else:
                found += 1
    # Both exits of the search are exercised.
    assert found > 100 and missing > 100
