"""Property-based tests: the dense all-pairs kernel against per-source BFS.

:func:`~repro.network.views.all_pairs_paths` finds every source's BFS
levels in one dense pass. Its hop distances and shortest-path counts must
equal, bit for bit, those of :func:`bfs_shortest_path_tree` run from
each source: on reduced directed views, where a channel side below the
amount drops one direction, on undirected views, and on graphs with
isolated nodes, parallel channels, several components or one node.
Path counts of 2^53 or more are inexact in float64, so the kernel must
hand such views to the BFS; a chain of two-way diamonds doubles the count
per diamond and reaches that bound at 53.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import ChannelGraph
from repro.network.views import (
    _dense_paths,
    all_pairs_paths,
    bfs_shortest_path_tree,
)

AMOUNTS = (0.0, 0.5, 1.0, 2.0)


def bfs_tables(view):
    n = view.num_nodes
    dist = np.empty((n, n))
    sigma = np.empty((n, n))
    for source in range(n):
        tree = bfs_shortest_path_tree(view, source)
        dist[source], sigma[source] = tree.dist, tree.sigma
    dist[dist < 0] = np.inf
    return dist, sigma


def assert_same_tables(got, expected):
    for table, reference in zip(got, expected):
        assert table.shape == reference.shape
        assert table.tobytes() == reference.tobytes()


@st.composite
def views(draw):
    """Views of random multigraphs: isolated nodes, parallel channels,
    one-sided channels, and a reduced amount that can cut directions."""
    n = draw(st.integers(min_value=1, max_value=14))
    graph = ChannelGraph()
    for node in range(n):
        graph.add_node(node)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    channels = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    for u, v in channels:
        graph.add_channel(
            u, v, draw(st.sampled_from(AMOUNTS)), draw(st.sampled_from(AMOUNTS))
        )
    if draw(st.booleans()):
        return graph.view(directed=False)
    return graph.view(directed=True, reduced=draw(st.sampled_from(AMOUNTS)))


@given(view=views())
@settings(max_examples=300, deadline=None)
def test_dense_kernel_matches_per_source_bfs(view):
    dense = _dense_paths(view)
    assert dense is not None
    assert_same_tables(dense, bfs_tables(view))
    assert_same_tables(all_pairs_paths(view), bfs_tables(view))


def diamond_chain(diamonds):
    """``c0 = {a0, b0} = c1 = ... = c_k``: 2^k shortest ``c0 -> c_k`` paths."""
    graph = ChannelGraph()
    for i in range(diamonds):
        for middle in (f"a{i}", f"b{i}"):
            graph.add_channel(f"c{i}", middle, 1.0, 1.0)
            graph.add_channel(middle, f"c{i + 1}", 1.0, 1.0)
    return graph


def test_counts_below_two_to_the_53_stay_dense():
    view = diamond_chain(52).view(directed=True)
    dense = _dense_paths(view)
    assert dense is not None
    assert dense[1].max() == 2.0 ** 52
    assert_same_tables(dense, bfs_tables(view))


@pytest.mark.parametrize("diamonds", [53, 54])
def test_counts_of_two_to_the_53_take_the_bfs(diamonds):
    view = diamond_chain(diamonds).view(directed=True)
    assert _dense_paths(view) is None
    tables = all_pairs_paths(view)
    assert tables[1].max() == 2.0 ** diamonds
    assert_same_tables(tables, bfs_tables(view))
