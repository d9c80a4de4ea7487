"""Property-based tests: the plain-python structure generators against
networkx.

The seeded topologies were first drawn by networkx, and the golden
digests pin them. The ports in :mod:`repro.snapshots.synthetic` must
give the same nodes in the same order, the same adjacency order and
the same ``nx.Graph.edges`` order, because ``_fund_channels`` draws one
capacity per edge in that order. networkx is a dev dependency only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snapshots.synthetic import (
    _add_edge,
    _ba_structure,
    _core_periphery_structure,
    _edges,
    _gnp_structure,
    _is_connected,
)

nx = pytest.importorskip("networkx")

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def assert_same_graph(structure, graph):
    assert list(structure) == list(graph.nodes)
    assert [list(nbrs) for nbrs in structure.values()] == [
        list(graph.adj[node]) for node in graph.nodes
    ]
    assert list(_edges(structure)) == list(graph.edges)


@st.composite
def ba_cases(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=m + 1, max_value=300))
    return n, m, draw(SEEDS)


@settings(max_examples=40, deadline=None)
@given(ba_cases())
def test_ba_structure_matches_networkx(case):
    n, m, seed = case
    assert_same_graph(_ba_structure(n, m, seed), nx.barabasi_albert_graph(n, m, seed))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    SEEDS,
)
def test_gnp_structure_and_connectivity_match_networkx(n, p, seed):
    structure = _gnp_structure(n, p, seed)
    graph = nx.gnp_random_graph(n, p, seed=seed)
    assert_same_graph(structure, graph)
    assert _is_connected(structure) == nx.is_connected(graph)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=40),
    st.data(),
    SEEDS,
)
def test_core_periphery_structure_replays_into_networkx(
    core_size, periphery_size, data, seed
):
    links = data.draw(st.integers(min_value=1, max_value=core_size))
    structure = _core_periphery_structure(
        core_size, periphery_size, links, np.random.default_rng(seed)
    )
    # A periphery node's adjacency lists its hubs in the order they were
    # drawn, so the additions can be replayed into an nx.Graph.
    graph = nx.Graph()
    graph.add_nodes_from(range(core_size))
    for i in range(core_size):
        for j in range(i + 1, core_size):
            graph.add_edge(i, j)
    for p in range(core_size, core_size + periphery_size):
        for hub in structure[p]:
            graph.add_edge(p, hub)
    assert_same_graph(structure, graph)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=40,
    )
)
def test_edge_order_matches_networkx_for_any_insertion_sequence(edges):
    structure = {}
    graph = nx.Graph()
    for u, v in edges:
        _add_edge(structure, u, v)
        graph.add_edge(u, v)
    assert_same_graph(structure, graph)
