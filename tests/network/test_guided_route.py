"""Unit tests for :func:`repro.network.routing.guided_bfs_structure`.

Each test builds a small graph whose search takes one known exit: found
on the first pass, found on the second, found only by the
:func:`small_bfs_structure` fallback, or no path (in the full view, or
only under the balance flags). Every case must walk to the same path,
with the same draws, as :func:`small_bfs_structure` does. The guides
are columns of the view's all-pairs distance table (:func:`hop_guide`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import routing
from repro.network.graph import ChannelGraph
from repro.network.routing import (
    guided_bfs_structure,
    hop_guide,
    small_bfs_structure,
    walk_small,
)


def lists(n, pairs, one_way=()):
    """The directed view of ``n`` nodes, its adjacency lists and its
    arcs in CSR entry order.

    Every pair in ``pairs`` is a channel funded on both sides, so both
    directions get an entry; a pair in ``one_way`` is a channel funded
    on ``u``'s side only, which the reduced view keeps as its ``u -> v``
    entry alone.
    """
    graph = ChannelGraph()
    for node in range(n):
        graph.add_node(node)
    for u, v in pairs:
        graph.add_channel(u, v, 1.0, 1.0)
    for u, v in one_way:
        graph.add_channel(u, v, 1.0, 0.0)
    view = graph.view(directed=True, reduced=0.5)
    rows = view.entry_rows().tolist()
    arcs = list(zip(rows, view.indices.tolist()))
    return view, view.adjacency_lists(), arcs


def flags(arcs, blocked=()):
    """Per-entry kept flags with the arcs in ``blocked`` dropped."""
    blocked = set(blocked)
    return bytes(0 if arc in blocked else 1 for arc in arcs)


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the searches that reach the full-BFS fallback."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2:4])
        return small_bfs_structure(*args, **kwargs)

    monkeypatch.setattr(routing, "small_bfs_structure", spy)
    return calls


def route(view, adj, s, r, kept):
    """Guided and plain walks under both selections; asserts they agree
    and returns the guided structure's ``dist`` and path."""
    n = len(adj)
    hops = hop_guide(view, r)
    guided = guided_bfs_structure(adj, n, s, r, kept, hops)
    plain = small_bfs_structure(adj, n, s, r, kept)
    if plain[0][r] >= 0:
        # Same distance and the same number of shortest paths.
        assert (guided[0][r], guided[1][r]) == (plain[0][r], plain[1][r])
    for selection in ("random", "first"):
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        path = walk_small(*guided, s, r, selection, ours)
        assert path == walk_small(*plain, s, r, selection, theirs)
        assert ours.random() == theirs.random()
    return guided[0], path


def test_hop_guide():
    view, _, _ = lists(5, [(0, 1), (1, 2), (2, 3)], one_way=[(4, 0)])
    # Node 4 reaches 3 through its one-way entry; nothing reaches 4.
    assert hop_guide(view, 3) == [3, 2, 1, 0, 4]
    assert hop_guide(view, 4) == [-1, -1, -1, -1, 0]


def test_found_on_first_pass(fallback_calls):
    # Three shortest paths 0-1-3, 0-2-3 and 0-2'-3 (via 6), plus a
    # detour 0-4-5-3.
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 5), (5, 3), (0, 6), (6, 3)]
    view, adj, arcs = lists(7, pairs)
    dist, path = route(view, adj, 0, 3, flags(arcs))
    assert dist[3] == hop_guide(view, 3)[0] == 2
    assert path in ([0, 1, 3], [0, 2, 3], [0, 6, 3])
    # The detour is pruned: it cannot lie on a 2-hop path.
    assert dist[4] == dist[5] == -1
    assert fallback_calls == []


def test_found_on_second_pass(fallback_calls):
    # 0-1-2 is the short way, but 1 -> 2 is drained; 0-3-4-2 is one hop
    # longer, exactly the smallest value the first pass prunes.
    view, adj, arcs = lists(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
    dist, path = route(view, adj, 0, 2, flags(arcs, blocked=[(1, 2)]))
    assert hop_guide(view, 2)[0] == 2
    assert dist[2] == 3 and path == [0, 3, 4, 2]
    assert fallback_calls == []


def test_found_only_by_fallback(fallback_calls):
    # A 6-cycle with 0 -> 1 drained: the only path goes the long way
    # round (5 hops), past both pruned passes (bounds 1 and 3).
    view, adj, arcs = lists(6, [(i, (i + 1) % 6) for i in range(6)])
    dist, path = route(view, adj, 0, 1, flags(arcs, blocked=[(0, 1)]))
    assert dist[1] == 5 and path == [0, 5, 4, 3, 2, 1]
    assert fallback_calls == [(0, 1)]


def test_unreachable_in_full_view(fallback_calls):
    view, adj, arcs = lists(4, [(0, 1), (2, 3)])

    class Untouched:
        def __getitem__(self, entry):
            raise AssertionError("a flag was read")

    dist, sigma, preds = guided_bfs_structure(
        adj, 4, 0, 3, Untouched(), hop_guide(view, 3)
    )
    assert walk_small(dist, sigma, preds, 0, 3, "first", None) is None
    assert route(view, adj, 0, 3, flags(arcs))[1] is None
    assert fallback_calls == []


def test_unreachable_only_under_kept_prunes_nothing(fallback_calls):
    # 0-1-2 with 1 -> 2 drained: the first pass prunes nothing, which
    # proves there is no path without a second pass or the fallback.
    view, adj, arcs = lists(3, [(0, 1), (1, 2)])
    dist, path = route(view, adj, 0, 2, flags(arcs, blocked=[(1, 2)]))
    assert path is None and dist[2] == -1
    assert fallback_calls == []


def test_unreachable_only_under_kept_after_both_passes(fallback_calls):
    # The 6-cycle with both ways into 1 drained: both passes prune
    # something, so only the fallback can rule the path out.
    view, adj, arcs = lists(6, [(i, (i + 1) % 6) for i in range(6)])
    kept = flags(arcs, blocked=[(0, 1), (2, 1)])
    dist, path = route(view, adj, 0, 1, kept)
    assert path is None
    assert fallback_calls == [(0, 1)]
