"""Unit tests for the reduced subgraph ``G'`` (Section II-B)."""

import pytest

from repro.network.graph import ChannelGraph
from repro.network.reduced import (
    feasible_pairs,
    infeasible_edges,
    reduced_view,
)


@pytest.fixture
def skewed() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 1.0)
    graph.add_channel("b", "c", 4.0, 6.0)
    return graph


def edges(view):
    """The view's directed edges as ``(src, dst)`` label pairs."""
    rows = view.entry_rows()
    return {
        (view.nodes[rows[k]], view.nodes[view.indices[k]])
        for k in range(view.num_entries)
    }


class TestReducedDigraph:
    """``reduced_view`` keeps exactly the directions able to forward."""

    def test_amount_zero_keeps_everything(self, skewed):
        assert reduced_view(skewed, 0.0).num_entries == 4

    def test_moderate_amount_drops_thin_directions(self, skewed):
        reduced = edges(reduced_view(skewed, 5.0))
        assert ("a", "b") in reduced
        assert ("b", "a") not in reduced  # 1 < 5
        assert ("b", "c") not in reduced  # 4 < 5
        assert ("c", "b") in reduced

    def test_huge_amount_drops_all(self, skewed):
        reduced = reduced_view(skewed, 100.0)
        assert reduced.num_entries == 0
        assert reduced.num_nodes == 3  # nodes kept


class TestInfeasibleEdges:
    def test_lists_dropped_directions(self, skewed):
        dropped = infeasible_edges(skewed, 5.0)
        pairs = {(s, d) for s, d, _ in dropped}
        assert pairs == {("b", "a"), ("b", "c")}

    def test_empty_when_amount_zero(self, skewed):
        assert infeasible_edges(skewed, 0.0) == []


class TestFeasiblePairs:
    def test_full_connectivity_small_amount(self, skewed):
        # all 6 ordered pairs feasible at amount 1 except none
        assert feasible_pairs(skewed, 1.0) == 6

    def test_partial_connectivity(self, skewed):
        # at 5.0 edges a->b and c->b survive: pairs (a,b), (c,b) only
        assert feasible_pairs(skewed, 5.0) == 2

    def test_no_connectivity(self, skewed):
        assert feasible_pairs(skewed, 1000.0) == 0
