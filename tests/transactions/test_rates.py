"""Unit tests for Eq. 2 rate estimation (``p_e``, ``λ_e``)."""

import pytest

from repro.network.betweenness import pair_weighted_betweenness_exact
from repro.network.graph import ChannelGraph
from repro.transactions.distributions import UniformDistribution
from repro.transactions.rates import (
    edge_probabilities,
    edge_rates,
    intermediary_traffic,
    traffic_profile,
)
from repro.transactions.zipf import ModifiedZipf


@pytest.fixture
def line3_graph() -> ChannelGraph:
    return ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=10.0)


class TestEdgeProbabilities:
    def test_uniform_line_probabilities(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        probs = edge_probabilities(line3_graph, dist)
        # one transaction: sender uniform (1/3), receiver uniform (1/2).
        # edge (a,b): used by a->b and a->c => 2 * 1/6 = 1/3
        assert probs[("a", "b")] == pytest.approx(1 / 3)
        assert probs[("b", "a")] == pytest.approx(1 / 3)
        assert probs[("b", "c")] == pytest.approx(1 / 3)

    def test_probabilities_sum_bounded_by_mean_path_length(self, line3_graph):
        """Σ_e p_e equals the mean shortest-path hop count of one tx."""
        dist = UniformDistribution.from_graph(line3_graph)
        probs = edge_probabilities(line3_graph, dist)
        # pairs at distance 1: (a,b),(b,a),(b,c),(c,b) — 4 of 6;
        # distance 2: (a,c),(c,a). mean = (4*1 + 2*2)/6 = 4/3
        assert sum(probs.values()) == pytest.approx(4 / 3)

    def test_custom_sender_weights(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        probs = edge_probabilities(
            line3_graph, dist, sender_weights={"a": 1.0, "b": 0.0, "c": 0.0}
        )
        # only a sends: a->b (1/2) and a->c (1/2) both cross (a,b)
        assert probs[("a", "b")] == pytest.approx(1.0)
        assert ("b", "a") not in probs

    def test_exact_matches_brandes(self, line3_graph):
        dist = ModifiedZipf(line3_graph, s=1.2)
        fast = edge_probabilities(line3_graph, dist)
        view = line3_graph.view(directed=True)
        # edge_probabilities weighs every sender 1/n
        weights = dist.pair_probabilities(view.nodes) / len(view.nodes)
        slow = pair_weighted_betweenness_exact(view, weights).edge
        assert set(fast) == set(slow)
        for edge in fast:
            assert fast[edge] == pytest.approx(slow[edge], abs=1e-9)

    def test_capacity_restriction_reroutes(self):
        # square a-b-c-d-a; thin edge a-b in one direction
        graph = ChannelGraph()
        graph.add_channel("a", "b", 0.5, 10.0)
        graph.add_channel("b", "c", 10.0, 10.0)
        graph.add_channel("c", "d", 10.0, 10.0)
        graph.add_channel("d", "a", 10.0, 10.0)
        dist = UniformDistribution.from_graph(graph)
        unrestricted = edge_probabilities(graph, dist, amount=0.0)
        restricted = edge_probabilities(graph, dist, amount=1.0)
        assert unrestricted[("a", "b")] > 0
        assert ("a", "b") not in restricted  # a->b can't carry 1.0


class TestEdgeRates:
    def test_rates_scale_with_total(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        probs = edge_probabilities(line3_graph, dist)
        rates = edge_rates(line3_graph, dist, total_tx_rate=50.0)
        for edge, p in probs.items():
            assert rates[edge] == pytest.approx(50.0 * p)


class TestIntermediaryTraffic:
    def test_middle_node_carries_cross_traffic(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        traffic = intermediary_traffic(line3_graph, dist)
        # b is intermediary for a<->c: 1/2 each direction
        assert traffic["b"] == pytest.approx(1.0)
        assert traffic["a"] == 0.0
        assert traffic["c"] == 0.0

    def test_per_sender_rates_weighting(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        traffic = intermediary_traffic(
            line3_graph, dist, per_sender_rates={"a": 10.0, "b": 0.0, "c": 0.0}
        )
        # only a sends: a->c crosses b with probability 1/2, rate 10
        assert traffic["b"] == pytest.approx(5.0)

    def test_profile_exposes_both_views(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        profile = traffic_profile(line3_graph, dist)
        assert profile.node_value("b") == pytest.approx(1.0)
        assert profile.edge_value("a", "b") == pytest.approx(1.0)
