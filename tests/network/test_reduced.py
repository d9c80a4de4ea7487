"""Unit tests for the reduced subgraph ``G'`` (Section II-B).

For a payment of size ``x`` the reduced subgraph is
``graph.view(directed=True, reduced=x)``: the directed view keeping only
the directions whose balance can forward ``x``.
"""

import pytest

from repro.network.graph import ChannelGraph


@pytest.fixture
def skewed() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 1.0)
    graph.add_channel("b", "c", 4.0, 6.0)
    return graph


def reduced(graph, amount):
    return graph.view(directed=True, reduced=amount)


def edges(view):
    """The view's directed edges as ``(src, dst)`` label pairs."""
    rows = view.entry_rows()
    return {
        (view.nodes[rows[k]], view.nodes[view.indices[k]])
        for k in range(view.num_entries)
    }


class TestReducedDigraph:
    """The reduced view keeps exactly the directions able to forward."""

    def test_amount_zero_keeps_everything(self, skewed):
        assert reduced(skewed, 0.0).num_entries == 4

    def test_moderate_amount_drops_thin_directions(self, skewed):
        kept = edges(reduced(skewed, 5.0))
        assert ("a", "b") in kept
        assert ("b", "a") not in kept  # 1 < 5
        assert ("b", "c") not in kept  # 4 < 5
        assert ("c", "b") in kept

    def test_huge_amount_drops_all(self, skewed):
        view = reduced(skewed, 100.0)
        assert view.num_entries == 0
        assert view.num_nodes == 3  # nodes kept
