"""Unit tests for the channel cost model (Section II-C / III-D)."""

import pytest

from repro.core.costs import benefit_positivity_condition
from repro.core.strategy import Action, Strategy
from repro.params import ModelParameters


class TestChannelCost:
    def test_c_plus_rl(self):
        params = ModelParameters(onchain_cost=2.0, opportunity_rate=0.25)
        assert params.channel_cost(8.0) == pytest.approx(4.0)

    def test_strategy_cost_sums(self):
        params = ModelParameters(onchain_cost=1.0, opportunity_rate=0.1)
        strategy = Strategy([Action("a", 10.0), Action("b", 20.0)])
        assert strategy.utility_cost(params) == pytest.approx(
            (1 + 1.0) + (1 + 2.0)
        )

    def test_onchain_alternative(self):
        params = ModelParameters(user_tx_rate=6.0, onchain_cost=2.0)
        assert params.onchain_alternative_cost() == pytest.approx(6.0)


class TestPositivityCondition:
    def test_holds_when_fees_small(self):
        params = ModelParameters(
            user_tx_rate=100.0, onchain_cost=1.0, opportunity_rate=0.0
        )
        # C_u = 50; E_fees + B/C * L = 1 + 10 * 1 = 11 < 50
        assert benefit_positivity_condition(
            params, expected_fees=1.0, budget=10.0, max_single_channel_cost=1.0
        )

    def test_fails_when_fees_large(self):
        params = ModelParameters(user_tx_rate=2.0, onchain_cost=1.0)
        # C_u = 1; lhs >= 10
        assert not benefit_positivity_condition(
            params, expected_fees=10.0, budget=5.0, max_single_channel_cost=1.0
        )
