"""Property-based tests: weighted Brandes vs ground truth on random graphs.

The production CSR pass (:func:`pair_weighted_betweenness` on a
:class:`GraphView`) is checked against the shortest-path enumeration
oracle. Random digraphs have one-way edges: each is a channel funded on
one side, seen through the directed view reduced at 0.5.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.betweenness import (
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
)
from repro.network.graph import ChannelGraph


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    p = draw(st.floats(min_value=0.2, max_value=0.8))
    structure = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    graph = ChannelGraph()
    for node in structure.nodes:
        graph.add_node(node)
    for u, v in structure.edges:
        graph.add_channel(u, v, 1.0, 0.0)
    return graph.view(directed=True, reduced=0.5)


@st.composite
def weighted_instances(draw):
    graph = draw(digraphs())
    multipliers = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=len(graph),
            max_size=len(graph),
        )
    )
    weight_of = dict(zip(graph.nodes, multipliers))
    weights = np.array([
        [weight_of[s] * (1.0 + 0.1 * weight_of[r]) for r in graph.nodes]
        for s in graph.nodes
    ])
    return graph, weights


class TestBrandesEqualsEnumeration:
    @given(instance=weighted_instances())
    @settings(max_examples=60, deadline=None)
    def test_node_values_match(self, instance):
        graph, weights = instance
        fast = pair_weighted_betweenness(graph, weights)
        slow = pair_weighted_betweenness_exact(graph, weights)
        for node in graph.nodes:
            assert fast.node_value(node) == pytest.approx(
                slow.node_value(node), abs=1e-8
            )

    @given(instance=weighted_instances())
    @settings(max_examples=60, deadline=None)
    def test_edge_values_match(self, instance):
        graph, weights = instance
        fast = pair_weighted_betweenness(graph, weights)
        slow = pair_weighted_betweenness_exact(graph, weights)
        keys = set(fast.edge) | set(slow.edge)
        for key in keys:
            assert fast.edge.get(key, 0.0) == pytest.approx(
                slow.edge.get(key, 0.0), abs=1e-8
            )


class TestConservationLaws:
    @given(graph=digraphs())
    @settings(max_examples=60, deadline=None)
    def test_first_hop_mass_equals_reachable_weight(self, graph):
        """Sum of edge traffic out of s equals the number of targets s can
        reach (each unit of pair weight leaves the source exactly once)."""
        for s in graph.nodes:
            out_mass = sum(
                value
                for (src, _dst), value in pair_weighted_betweenness(
                    graph, sources=[s]
                ).edge.items()
                if src == s
            )
            reachable = len(nx.descendants(graph.to_networkx(), s))
            assert out_mass == pytest.approx(reachable, abs=1e-8)

    @given(graph=digraphs())
    @settings(max_examples=40, deadline=None)
    def test_node_value_bounded_by_total_pairs(self, graph):
        n = graph.num_nodes
        result = pair_weighted_betweenness(graph)
        for value in result.node.values():
            assert value <= n * (n - 1) + 1e-9
