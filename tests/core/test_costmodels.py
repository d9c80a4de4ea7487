"""Unit tests for pluggable cost models (future-work extension)."""

import math

import pytest

from repro.core.costmodels import DiscountedOpportunityCost
from repro.core.strategy import Action, Strategy
from repro.core.utility import JoiningUserModel
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters


class TestDiscountedOpportunityCost:
    def test_small_rate_approximates_linear(self):
        """For small ρT the Guasoni model reduces to the paper's r = ρT."""
        rho, lifetime = 0.001, 1.0
        discounted = DiscountedOpportunityCost(1.0, rho, lifetime)
        linear = ModelParameters(onchain_cost=1.0, opportunity_rate=rho * lifetime)
        assert discounted.channel_cost(100.0) == pytest.approx(
            linear.channel_cost(100.0), rel=1e-3
        )

    def test_strategy_cost_modular(self):
        model = DiscountedOpportunityCost(1.0, 0.05, 2.0)
        assert model.strategy_cost([2.0, 3.0]) == pytest.approx(
            model.channel_cost(2.0) + model.channel_cost(3.0)
        )

    def test_saturates_at_principal(self):
        model = DiscountedOpportunityCost(0.0, interest_rate=10.0, lifetime=100.0)
        assert model.channel_cost(50.0) == pytest.approx(50.0)

    def test_monotone_in_lifetime(self):
        costs = [
            DiscountedOpportunityCost(1.0, 0.05, t).channel_cost(100.0)
            for t in (0.5, 1.0, 5.0, 50.0)
        ]
        assert costs == sorted(costs)

    def test_effective_linear_rate(self):
        model = DiscountedOpportunityCost(1.0, 0.05, 2.0)
        assert model.effective_linear_rate() == pytest.approx(
            1.0 - math.exp(-0.1)
        )


class TestIntegrationWithUtilityModel:
    """Section II-C: 'our computational results still hold in this
    extended model of channel cost' — the cost stays modular, so the
    utility pipeline accepts any cost model unchanged."""

    @pytest.fixture
    def graph(self) -> ChannelGraph:
        return ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=5.0)

    def test_cost_model_overrides_params(self, graph):
        params = ModelParameters(onchain_cost=1.0, opportunity_rate=0.0)
        cost_model = DiscountedOpportunityCost(1.0, 0.5, 2.0)
        base = JoiningUserModel(graph, "u", params)
        extended = JoiningUserModel(graph, "u2", params, cost_model=cost_model)
        strategy = Strategy([Action("b", 10.0)])
        assert extended.channel_costs(strategy) == pytest.approx(
            cost_model.channel_cost(10.0)
        )
        assert extended.channel_costs(strategy) > base.channel_costs(strategy)

    def test_utility_uses_cost_model(self, graph):
        params = ModelParameters(onchain_cost=1.0, opportunity_rate=0.0)
        cost_model = DiscountedOpportunityCost(1.0, 1.0, 10.0)
        model = JoiningUserModel(graph, "u", params, cost_model=cost_model)
        cheap = model.utility(Strategy([Action("b", 0.0)]))
        pricey = model.utility(Strategy([Action("b", 4.0)]))
        # discounted opportunity cost makes large locks strictly worse
        assert pricey < cheap

    def test_submodularity_preserved(self, graph):
        """Thm 1 survives the extended cost model (modular costs)."""
        from repro.core.objective import ObjectiveEvaluator
        from repro.core.properties import check_submodularity
        from repro.core.strategy import ActionSpace

        params = ModelParameters(onchain_cost=1.0)
        model = JoiningUserModel(
            graph, "u", params,
            cost_model=DiscountedOpportunityCost(1.0, 0.2, 3.0),
            revenue_mode="fixed-rate",
        )
        omega = ActionSpace.fixed_lock(graph, "u", 1.0)
        evaluator = ObjectiveEvaluator(model, kind="utility")
        report = check_submodularity(evaluator, omega, trials=60, seed=0)
        assert report.ok
