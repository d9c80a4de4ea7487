"""Unit tests for pair-weighted betweenness (the Eq. 2 engine).

Every case runs on a :class:`~repro.network.views.GraphView`. Structures
are written as networkx digraphs, which also serve as the external
reference (``nx.betweenness_centrality``); :func:`directed_view` turns
each into a channel graph whose reduced directed view has exactly the
same edges.
"""

import networkx as nx
import pytest

from repro.network.betweenness import (
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
    uniform_pair_weight,
)
from repro.network.graph import ChannelGraph
from repro.network.views import GraphView


def directed_view(structure: nx.DiGraph) -> GraphView:
    """The view whose directed edges are exactly ``structure``'s.

    Each directed edge ``u -> v`` is a channel funded on ``u``'s side
    only; the view reduced at 0.5 drops the unfunded directions.
    """
    graph = ChannelGraph()
    for node in structure.nodes:
        graph.add_node(node)
    for u, v in structure.edges:
        graph.add_channel(u, v, 1.0, 0.0)
    return graph.view(directed=True, reduced=0.5)


def _line_digraph(n: int) -> nx.DiGraph:
    graph = nx.DiGraph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
        graph.add_edge(i + 1, i)
    return graph


class TestAgainstNetworkx:
    """With uniform weights our Brandes must equal classic betweenness."""

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: _line_digraph(5),
            lambda: nx.complete_graph(5, create_using=nx.DiGraph),
            lambda: nx.cycle_graph(7, create_using=nx.DiGraph).to_directed(),
            lambda: nx.star_graph(6).to_directed(),
        ],
    )
    def test_node_betweenness_matches(self, maker):
        graph = maker()
        ours = pair_weighted_betweenness(directed_view(graph), uniform_pair_weight)
        reference = nx.betweenness_centrality(graph, normalized=False)
        for node in graph.nodes:
            assert ours.node_value(node) == pytest.approx(
                reference[node], abs=1e-9
            )

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: _line_digraph(5),
            lambda: nx.cycle_graph(6, create_using=nx.DiGraph).to_directed(),
        ],
    )
    def test_edge_betweenness_matches(self, maker):
        graph = maker()
        ours = pair_weighted_betweenness(directed_view(graph), uniform_pair_weight)
        reference = nx.edge_betweenness_centrality(graph, normalized=False)
        for edge, value in reference.items():
            assert ours.edge_value(*edge) == pytest.approx(value, abs=1e-9)


class TestExactCrossCheck:
    def test_brandes_equals_enumeration_weighted(self):
        graph = nx.star_graph(5).to_directed()
        weights = {
            (s, r): 0.1 * (s + 1) + 0.01 * (r + 1)
            for s in graph.nodes
            for r in graph.nodes
            if s != r
        }
        weight_fn = lambda s, r: weights[(s, r)]
        view = directed_view(graph)
        fast = pair_weighted_betweenness(view, weight_fn)
        slow = pair_weighted_betweenness_exact(view, weight_fn)
        for node in graph.nodes:
            assert fast.node_value(node) == pytest.approx(
                slow.node_value(node), abs=1e-9
            )
        for edge, value in slow.edge.items():
            assert fast.edge_value(*edge) == pytest.approx(value, abs=1e-9)

    def test_multiple_shortest_paths_split_traffic(self):
        # diamond: 0-1-3 and 0-2-3 are both shortest 0->3 paths
        graph = nx.DiGraph()
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            graph.add_edge(u, v)
            graph.add_edge(v, u)
        result = pair_weighted_betweenness(directed_view(graph), uniform_pair_weight)
        # each middle node carries half of 0->3 and half of 3->0
        assert result.node_value(1) == pytest.approx(1.0)
        assert result.node_value(2) == pytest.approx(1.0)


class TestStructure:
    def test_endpoints_not_counted_as_intermediaries(self):
        view = directed_view(_line_digraph(3))  # 0-1-2
        result = pair_weighted_betweenness(view, uniform_pair_weight)
        assert result.node_value(0) == 0.0
        assert result.node_value(2) == 0.0
        assert result.node_value(1) == pytest.approx(2.0)  # 0->2 and 2->0

    def test_edge_values_include_endpoint_hops(self):
        view = directed_view(_line_digraph(2))  # single edge both ways
        result = pair_weighted_betweenness(view, uniform_pair_weight)
        assert result.edge_value(0, 1) == pytest.approx(1.0)
        assert result.edge_value(1, 0) == pytest.approx(1.0)

    def test_sources_restriction(self):
        view = directed_view(_line_digraph(4))
        only_zero = pair_weighted_betweenness(
            view, uniform_pair_weight, sources=[0]
        )
        # only paths from 0: 0->2 passes 1; 0->3 passes 1,2
        assert only_zero.node_value(1) == pytest.approx(2.0)
        assert only_zero.node_value(2) == pytest.approx(1.0)

    def test_zero_weight_pairs_contribute_nothing(self):
        view = directed_view(_line_digraph(4))
        result = pair_weighted_betweenness(view, lambda s, r: 0.0)
        assert all(v == 0.0 for v in result.node.values())
        assert all(v == 0.0 for v in result.edge.values())

    def test_disconnected_pairs_skipped(self):
        graph = nx.DiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        graph.add_node(2)
        result = pair_weighted_betweenness(directed_view(graph), uniform_pair_weight)
        assert result.node_value(2) == 0.0

    def test_unknown_source_ignored(self):
        view = directed_view(_line_digraph(3))
        result = pair_weighted_betweenness(
            view, uniform_pair_weight, sources=["ghost", 0]
        )
        assert result.node_value(1) == pytest.approx(1.0)
