"""Property-based tests: the dense betweenness pass against the CSR pass
and the enumeration oracle.

Below ``SMALL_GRAPH_NODES`` nodes :func:`betweenness_arrays` sweeps every
source at once on the view's all-pairs tables (:func:`_dense_betweenness`);
from there up it runs one CSR pass per source (:func:`_csr_betweenness`).
On any view both passes, and the shortest-path enumeration of
:func:`pair_weighted_betweenness_exact`, must give the same node and
edge values to a relative 1e-12: on reduced directed and undirected views
of random multigraphs with isolated nodes and one-sided channels, for
source subsets, and for uniform and weighted pairs with zeros. A chain
of three-way diamonds has more than 2^53 shortest paths in 137 nodes, so
its tables come from one BFS per source and it still takes the dense
pass. On a cycle every node ties exactly, and the victim choice must go
to the node whose ``str`` sorts first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.runner import select_victim
from repro.equilibrium.topologies import circle
from repro.network.betweenness import (
    _csr_betweenness,
    _dense_betweenness,
    betweenness_arrays,
    pair_weighted_betweenness_exact,
    uniform_pair_weight,
)
from repro.network.graph import ChannelGraph
from repro.network.views import SMALL_GRAPH_NODES, _dense_paths

AMOUNTS = (0.0, 0.5, 1.0, 2.0)


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


@st.composite
def instances(draw):
    """``(view, pair_weight, source indices)``: a view of a random
    multigraph, uniform or drawn weights (zeros included) and all
    sources or a drawn subset."""
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
        view = graph.view(directed=False)
    else:
        view = graph.view(directed=True, reduced=draw(st.sampled_from(AMOUNTS)))
    if draw(st.booleans()):
        pair_weight = uniform_pair_weight
    else:
        table = draw(st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 3.5]), min_size=n * n, max_size=n * n
        ))

        def pair_weight(s, r):
            return table[s * n + r]
    if draw(st.booleans()):
        sources = list(range(n))
    else:
        sources = sorted(draw(st.sets(st.integers(0, n - 1))))
    return view, pair_weight, sources


@given(instance=instances())
@settings(max_examples=300, deadline=None)
def test_dense_pass_matches_csr_pass_and_enumeration(instance):
    view, pair_weight, sources = instance
    uniform = pair_weight is uniform_pair_weight
    dense = _dense_betweenness(view, pair_weight, sources, uniform)
    csr = _csr_betweenness(view, pair_weight, sources, uniform)
    assert_close(dense.node_values, csr.node_values)
    assert_close(dense.edge_values, csr.edge_values)

    chosen = set(sources)
    exact = pair_weighted_betweenness_exact(
        view, lambda s, r: pair_weight(s, r) if s in chosen else 0.0
    )
    nodes = view.nodes
    assert_close(
        dense.node_values, [exact.node_value(node) for node in nodes]
    )
    assert_close(dense.edge_values, [
        exact.edge_value(nodes[row], nodes[target])
        for row, target in zip(view.entry_rows(), view.indices)
    ])


def three_way_diamonds(diamonds):
    """``c0 = {a0, b0, d0} = c1 = ... = c_k``: 3^k shortest ``c0 -> c_k``
    paths over ``4k + 1`` nodes."""
    graph = ChannelGraph()
    for i in range(diamonds):
        for middle in (f"a{i}", f"b{i}", f"d{i}"):
            graph.add_channel(f"c{i}", middle, 1.0, 1.0)
            graph.add_channel(middle, f"c{i + 1}", 1.0, 1.0)
    return graph


@pytest.mark.parametrize("weighted", [False, True])
def test_dense_pass_on_tables_from_the_bfs_fallback(weighted):
    view = three_way_diamonds(34).view(directed=True)
    assert view.num_nodes == 137 < SMALL_GRAPH_NODES
    assert 3.0 ** 34 > 2.0 ** 53
    # The counts pass 2^53, so the all-pairs tables come from the BFS.
    assert _dense_paths(view) is None
    pair_weight = (
        (lambda s, r: float(len(s) + len(r) % 3)) if weighted
        else uniform_pair_weight
    )
    dense = betweenness_arrays(view, pair_weight)
    csr = _csr_betweenness(
        view, pair_weight, range(view.num_nodes), not weighted
    )
    assert_close(dense.node_values, csr.node_values)
    assert_close(dense.edge_values, csr.edge_values)


def test_cycle_ties_go_to_the_first_name():
    for n in range(5, 141):
        graph = circle(n, balance=1.0)
        values = betweenness_arrays(graph.view(directed=True)).node_values
        assert np.unique(values).size == 1, n
        assert select_victim(graph) == min(graph.nodes, key=str), n
