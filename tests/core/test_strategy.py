"""Unit tests for actions, strategies and action spaces."""

import pytest

from repro.errors import BudgetExceeded, InvalidParameter
from repro.core.strategy import Action, ActionSpace, Strategy
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters


class TestAction:
    def test_costs(self):
        params = ModelParameters(onchain_cost=1.0, opportunity_rate=0.1)
        action = Action("v", 5.0)
        assert action.budget_cost(params) == pytest.approx(6.0)
        assert action.utility_cost(params) == pytest.approx(1.5)

    def test_rejects_negative_lock(self):
        with pytest.raises(InvalidParameter):
            Action("v", -1.0)

    def test_hashable_and_equal(self):
        assert Action("v", 1.0) == Action("v", 1.0)
        assert hash(Action("v", 1.0)) == hash(Action("v", 1.0))
        assert Action("v", 1.0) != Action("v", 2.0)


class TestStrategyMultiset:
    def test_canonical_order(self):
        s1 = Strategy([Action("b", 1.0), Action("a", 2.0)])
        s2 = Strategy([Action("a", 2.0), Action("b", 1.0)])
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_duplicates_allowed(self):
        strategy = Strategy([Action("a", 1.0), Action("a", 1.0)])
        assert len(strategy) == 2
        assert [action.peer for action in strategy] == ["a", "a"]

    def test_contains(self):
        strategy = Strategy([Action("a", 1.0)])
        assert Action("a", 1.0) in strategy
        assert Action("a", 2.0) not in strategy

    def test_with_action(self):
        base = Strategy([Action("a", 1.0)])
        extended = base.with_action(Action("b", 2.0))
        assert len(base) == 1  # immutable
        assert len(extended) == 2

    def test_without_action(self):
        strategy = Strategy([Action("a", 1.0), Action("a", 1.0)])
        reduced = strategy.without_action(Action("a", 1.0))
        assert len(reduced) == 1
        assert Action("a", 1.0) in reduced

    def test_without_missing_action(self):
        with pytest.raises(InvalidParameter):
            Strategy().without_action(Action("a", 1.0))


class TestBudget:
    def test_budget_cost_sums_c_plus_l(self):
        params = ModelParameters(onchain_cost=1.0)
        strategy = Strategy([Action("a", 2.0), Action("b", 3.0)])
        assert strategy.budget_cost(params) == pytest.approx(7.0)

    def test_utility_cost_uses_opportunity_rate(self):
        params = ModelParameters(onchain_cost=1.0, opportunity_rate=0.5)
        strategy = Strategy([Action("a", 2.0)])
        assert strategy.utility_cost(params) == pytest.approx(2.0)

    def test_check_budget_passes(self):
        params = ModelParameters(onchain_cost=1.0)
        Strategy([Action("a", 2.0)]).check_budget(params, 3.0)

    def test_check_budget_raises(self):
        params = ModelParameters(onchain_cost=1.0)
        with pytest.raises(BudgetExceeded):
            Strategy([Action("a", 5.0)]).check_budget(params, 3.0)

    def test_fits_budget(self):
        params = ModelParameters(onchain_cost=1.0)
        assert Strategy([Action("a", 1.0)]).fits_budget(params, 2.0)
        assert not Strategy([Action("a", 1.5)]).fits_budget(params, 2.0)

    def test_total_locked(self):
        strategy = Strategy([Action("a", 1.5), Action("b", 2.5)])
        assert strategy.total_locked() == pytest.approx(4.0)


class TestActionSpace:
    @pytest.fixture
    def graph(self) -> ChannelGraph:
        return ChannelGraph.from_edges([("a", "b"), ("b", "c")])

    def test_fixed_lock_excludes_new_user(self, graph):
        omega = ActionSpace.fixed_lock(graph, "a", 1.0)
        assert all(action.peer != "a" for action in omega)
        assert len(omega) == 2

    def test_fixed_lock_for_outsider(self, graph):
        omega = ActionSpace.fixed_lock(graph, "newcomer", 2.0)
        assert len(omega) == 3
        assert all(action.locked == 2.0 for action in omega)

    def test_fixed_lock_rejects_negative(self, graph):
        with pytest.raises(InvalidParameter):
            ActionSpace.fixed_lock(graph, "u", -1.0)

    def test_discrete_locks_are_multiples(self, graph):
        params = ModelParameters(onchain_cost=1.0)
        omega = ActionSpace.discrete(graph, "u", budget=3.0, granularity=0.5,
                                     params=params)
        locks = {action.locked for action in omega}
        assert locks == {0.0, 0.5, 1.0, 1.5, 2.0}

    def test_discrete_empty_when_budget_below_c(self, graph):
        params = ModelParameters(onchain_cost=2.0)
        omega = ActionSpace.discrete(graph, "u", budget=1.0, granularity=0.5,
                                     params=params)
        assert omega == []

    def test_discrete_rejects_bad_granularity(self, graph):
        with pytest.raises(InvalidParameter):
            ActionSpace.discrete(graph, "u", 3.0, 0.0, ModelParameters())

    def test_max_channels(self):
        params = ModelParameters(onchain_cost=1.0)
        assert ActionSpace.max_channels(params, budget=10.0, lock=1.0) == 5
        assert ActionSpace.max_channels(params, budget=1.9, lock=1.0) == 0

    @pytest.mark.parametrize(
        "onchain_cost, lock, budget, expected",
        [(0.2, 0.1, 0.6, 2), (0.1, 1.0, 3.3, 3)],
    )
    def test_max_channels_counts_what_fits_on_float_edges(
        self, onchain_cost, lock, budget, expected
    ):
        # budget / (C + l1) rounds to just below the integer here.
        params = ModelParameters(onchain_cost=onchain_cost)
        count = ActionSpace.max_channels(params, budget=budget, lock=lock)
        assert count == expected
        assert Strategy([Action(i, lock) for i in range(count)]).fits_budget(
            params, budget
        )

    def test_discrete_keeps_the_last_lock_that_fits(self, graph):
        # (0.7 - 0.1) / 0.2 rounds to just below 3, but C + 3 * 0.2 fits.
        params = ModelParameters(onchain_cost=0.1)
        omega = ActionSpace.discrete(graph, "u", budget=0.7, granularity=0.2,
                                     params=params)
        top = max(action.locked for action in omega)
        assert top == pytest.approx(0.6)
        assert Strategy([Action("a", top)]).fits_budget(params, 0.7)
