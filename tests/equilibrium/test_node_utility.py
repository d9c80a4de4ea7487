"""Unit tests for the Section IV node utility (NetworkGameModel)."""

import math

import pytest

from repro.equilibrium.conditions import harmonic
from repro.equilibrium.node_utility import NetworkGameModel
from repro.equilibrium.topologies import CENTER, circle, path, star
from repro.errors import InvalidParameter, NodeNotFound
from repro.network.graph import ChannelGraph


class TestComponents:
    def test_leaf_has_zero_revenue(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.5, zipf_s=1.0)
        graph = star(5)
        assert model.revenue(graph, "v000") == 0.0

    def test_center_revenue_positive(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.5, zipf_s=1.0)
        graph = star(5)
        assert model.revenue(graph, CENTER) > 0.0

    def test_star_leaf_fees_closed_form(self):
        """Thm 8 proof, default strategy: E_fees = a * (H^s_n - 1) / H^s_n."""
        n, s, a = 6, 1.3, 2.0
        model = NetworkGameModel(a=a, b=1.0, edge_cost=0.5, zipf_s=s)
        graph = star(n)
        expected = a * (harmonic(n, s) - 1.0) / harmonic(n, s)
        assert model.fees(graph, "v000") == pytest.approx(expected)

    def test_center_fees_zero_intermediaries(self):
        """The center reaches every node directly: zero intermediary fees."""
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.5, zipf_s=1.0)
        assert model.fees(star(5), CENTER) == pytest.approx(0.0)

    def test_cost_scales_with_degree(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.7, zipf_s=1.0)
        graph = star(5)
        assert model.cost(graph, CENTER) == pytest.approx(3.5)
        assert model.cost(graph, "v000") == pytest.approx(0.7)

    def test_disconnected_node_utility_minus_inf(self):
        model = NetworkGameModel()
        graph = ChannelGraph.from_edges([("a", "b")])
        graph.add_node("hermit")
        assert model.node_utility(graph, "hermit") == -math.inf

    def test_unknown_node(self):
        model = NetworkGameModel()
        with pytest.raises(NodeNotFound):
            model.node_utility(star(3), "ghost")

    def test_breakdown_consistent(self):
        model = NetworkGameModel(a=0.5, b=0.8, edge_cost=0.3, zipf_s=1.1)
        graph = circle(6)
        node = "v002"
        breakdown = model.breakdown(graph, node)
        assert breakdown.utility == pytest.approx(
            model.node_utility(graph, node)
        )
        assert breakdown.utility == pytest.approx(
            breakdown.revenue - breakdown.fees - breakdown.cost
        )


class TestSymmetry:
    def test_circle_nodes_symmetric(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.4, zipf_s=1.5)
        graph = circle(7)
        utilities = set(
            round(model.node_utility(graph, v), 9) for v in graph.nodes
        )
        assert len(utilities) == 1

    def test_star_leaves_symmetric(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.4, zipf_s=1.5)
        graph = star(5)
        utilities = set(
            round(model.node_utility(graph, v), 9)
            for v in graph.nodes
            if v != CENTER
        )
        assert len(utilities) == 1

    def test_path_interior_beats_endpoint_on_fees(self):
        model = NetworkGameModel(a=1.0, b=0.0, edge_cost=0.0, zipf_s=0.0)
        graph = path(5)
        endpoint_fees = model.fees(graph, "v000")
        middle_fees = model.fees(graph, "v002")
        assert middle_fees < endpoint_fees


class TestValidationAndFactories:
    def test_rejects_negative_params(self):
        with pytest.raises(InvalidParameter):
            NetworkGameModel(a=-1.0)
        with pytest.raises(InvalidParameter):
            NetworkGameModel(zipf_s=-0.1)
