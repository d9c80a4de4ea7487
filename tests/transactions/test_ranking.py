"""Unit tests for degree ranking and rank factors (Section II-B)."""

import numpy as np
import pytest

from repro.errors import InvalidParameter, NodeNotFound
from repro.network.graph import ChannelGraph
from repro.transactions.ranking import DegreeRanking, _tie_factors, check_zipf_s


def ranked_row(graph, perspective):
    """``(nodes, order, degrees)``: the graph's nodes and one
    :meth:`DegreeRanking.ranked` row, from ``perspective``'s view."""
    ranking = DegreeRanking(graph)
    senders = None if perspective is None else [ranking.position(perspective)]
    order, degrees = ranking.ranked(senders)
    return ranking.nodes, order[:1], degrees[:1]


def degree_ranking(graph, perspective=None):
    """``(node, degree in G - perspective)`` pairs in rank order."""
    nodes, order, degrees = ranked_row(graph, perspective)
    return [(nodes[i], d) for i, d in zip(order[0].tolist(), degrees[0].tolist())]


def rank_factors(graph, perspective=None, s=1.0):
    """Unnormalised rank factor of every node from ``perspective``'s view."""
    nodes, order, degrees = ranked_row(graph, perspective)
    factors = _tie_factors(degrees, s)[0].tolist()
    return dict(zip([nodes[i] for i in order[0].tolist()], factors))


def rank_factors_from_degrees(degrees, s):
    """Rank factors of one non-increasing degree row."""
    return _tie_factors(np.asarray(degrees, dtype=float).reshape(1, -1), s)[0].tolist()


@pytest.fixture
def star5() -> ChannelGraph:
    return ChannelGraph.from_edges(
        [("hub", f"leaf{i}") for i in range(5)], balance=1.0
    )


class TestDegreeRanking:
    def test_highest_degree_first(self, star5):
        ranked = degree_ranking(star5)
        assert ranked[0] == ("hub", 5)
        assert all(d == 1 for _, d in ranked[1:])

    def test_perspective_excludes_own_channels(self, star5):
        ranked = degree_ranking(star5, perspective="leaf0")
        nodes = [n for n, _ in ranked]
        assert "leaf0" not in nodes
        hub_degree = dict(ranked)["hub"]
        assert hub_degree == 4  # channel to leaf0 not counted

    def test_perspective_missing_node(self, star5):
        with pytest.raises(NodeNotFound):
            degree_ranking(star5, perspective="ghost")

    def test_deterministic_tie_order(self, star5):
        first = degree_ranking(star5)
        second = degree_ranking(star5)
        assert first == second


class TestRankFactorsFromDegrees:
    def test_distinct_degrees_plain_zipf(self):
        factors = rank_factors_from_degrees([5, 3, 1], s=1.0)
        assert factors == pytest.approx([1.0, 0.5, 1.0 / 3.0])

    def test_tie_block_averaged(self):
        # ranks 1, 2, 3 where 2 and 3 tie: both get (1/2 + 1/3)/2
        factors = rank_factors_from_degrees([5, 2, 2], s=1.0)
        expected_tie = (0.5 + 1.0 / 3.0) / 2.0
        assert factors == pytest.approx([1.0, expected_tie, expected_tie])

    def test_s_zero_uniform(self):
        factors = rank_factors_from_degrees([4, 3, 2, 2], s=0.0)
        assert factors == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_all_tied(self):
        factors = rank_factors_from_degrees([1, 1, 1], s=2.0)
        expected = (1.0 + 1.0 / 4.0 + 1.0 / 9.0) / 3.0
        assert factors == pytest.approx([expected] * 3)

    def test_monotone_in_rank(self):
        """Paper's property: earlier (better) rank block => larger factor."""
        degrees = [9, 9, 5, 5, 5, 2, 1, 1]
        factors = rank_factors_from_degrees(degrees, s=1.3)
        # factors of distinct blocks strictly decrease
        blocks = sorted(set(factors), reverse=True)
        assert blocks == sorted(
            {f for f in factors}, reverse=True
        )
        assert factors[0] > factors[2] > factors[5] > factors[6]

    def test_rejects_negative_s(self):
        with pytest.raises(InvalidParameter):
            check_zipf_s(-0.5)

    def test_empty(self):
        assert rank_factors_from_degrees([], s=1.0) == []


class TestRankFactorsOnGraph:
    def test_star_leaves_equal_factor(self, star5):
        factors = rank_factors(star5, perspective="leaf0", s=1.0)
        leaf_factors = {v: f for v, f in factors.items() if v != "hub"}
        values = set(round(f, 12) for f in leaf_factors.values())
        assert len(values) == 1

    def test_hub_gets_top_factor(self, star5):
        factors = rank_factors(star5, perspective="leaf0", s=1.0)
        assert factors["hub"] == pytest.approx(1.0)
        assert all(
            factors["hub"] > f for v, f in factors.items() if v != "hub"
        )

    def test_excludes_perspective(self, star5):
        factors = rank_factors(star5, perspective="leaf0", s=1.0)
        assert "leaf0" not in factors
        assert len(factors) == 5
