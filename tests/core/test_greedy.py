"""Unit tests for Algorithm 1 (greedy, fixed funds)."""

import math

import pytest

from repro.core.algorithms.bruteforce import brute_force
from repro.core.algorithms.greedy import greedy_fixed_funds, greedy_over_actions
from repro.core.objective import ObjectiveEvaluator
from repro.core.strategy import Action, ActionSpace
from repro.core.utility import JoiningUserModel
from repro.errors import InvalidParameter
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.snapshots.synthetic import barabasi_albert_snapshot


@pytest.fixture
def small_model() -> JoiningUserModel:
    graph = ChannelGraph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], balance=5.0
    )
    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.01,
        fee_avg=0.5,
        fee_out_avg=0.2,
        total_tx_rate=20.0,
        user_tx_rate=2.0,
        zipf_s=1.0,
    )
    return JoiningUserModel(graph, "u", params)


class TestGreedyBasics:
    def test_respects_budget(self, small_model):
        result = greedy_fixed_funds(small_model, budget=4.0, lock=1.0)
        assert result.strategy.budget_cost(small_model.params) <= 4.0 + 1e-9
        assert len(result.strategy) <= 2  # M = floor(4 / 2)

    def test_uses_fixed_lock(self, small_model):
        result = greedy_fixed_funds(small_model, budget=6.0, lock=1.5)
        assert all(a.locked == 1.5 for a in result.strategy)

    def test_rejects_nonpositive_budget(self, small_model):
        with pytest.raises(InvalidParameter):
            greedy_fixed_funds(small_model, budget=0.0, lock=1.0)

    def test_zero_m_returns_empty(self, small_model):
        result = greedy_fixed_funds(small_model, budget=0.5, lock=1.0)
        assert len(result.strategy) == 0
        assert result.objective_value == -math.inf

    def test_prefix_values_recorded(self, small_model):
        result = greedy_fixed_funds(small_model, budget=6.0, lock=1.0)
        values = result.details["prefix_values"]
        assert len(values) == len(result.details["prefix_sizes"])
        assert result.objective_value == max(values)

    def test_deterministic(self, small_model):
        r1 = greedy_fixed_funds(small_model, budget=6.0, lock=1.0)
        graph = small_model.base_graph
        model2 = JoiningUserModel(graph, "u", small_model.params)
        r2 = greedy_fixed_funds(model2, budget=6.0, lock=1.0)
        assert r1.strategy == r2.strategy

    def test_picks_unique_peers(self, small_model):
        result = greedy_fixed_funds(small_model, budget=20.0, lock=1.0)
        peers = tuple(action.peer for action in result.strategy)
        assert len(peers) == len(set(peers))


class TestTheorem4Guarantee:
    """Greedy achieves >= (1 - 1/e) of the optimum of U' (Thm 4).

    U' values can be negative (fees dominate); the Nemhauser guarantee is
    stated for non-negative functions, so we compare *gains over the best
    singleton baseline* on instances where the optimum is positive.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ratio_on_random_instances(self, seed):
        graph = barabasi_albert_snapshot(12, attachments=2, seed=seed)
        params = ModelParameters(
            onchain_cost=0.4,
            opportunity_rate=0.001,
            fee_avg=1.0,
            fee_out_avg=0.05,
            total_tx_rate=100.0,
            user_tx_rate=1.0,
            zipf_s=1.0,
        )
        model = JoiningUserModel(graph, "u", params, revenue_mode="fixed-rate")
        budget = 4.2  # M = 3 channels at lock 1.0
        greedy = greedy_fixed_funds(model, budget=budget, lock=1.0)
        optimum = brute_force(model, budget=budget, lock=1.0)
        assert optimum.objective_value > 0
        ratio = greedy.objective_value / optimum.objective_value
        assert ratio >= (1 - 1 / math.e) - 1e-9

    def test_evaluation_count_linear_in_m_n(self, small_model):
        result = greedy_fixed_funds(small_model, budget=6.0, lock=1.0)
        n = len(small_model.base_graph)
        m = result.details["max_channels"]
        # greedy evaluates at most one objective per candidate per step
        # (+1 for the empty strategy)
        assert result.evaluations <= m * n + 1


class TestGreedyOverActions:
    def test_monotone_objective_takes_full_prefix(self, small_model):
        evaluator = ObjectiveEvaluator(small_model, kind="simplified")
        omega = ActionSpace.fixed_lock(small_model.base_graph, "u", 1.0)
        result = greedy_over_actions(evaluator, omega, max_channels=2)
        # U' is monotone: the longest prefix is optimal
        assert len(result.strategy) == 2

    def test_empty_omega(self, small_model):
        evaluator = ObjectiveEvaluator(small_model, kind="simplified")
        result = greedy_over_actions(evaluator, [], max_channels=3)
        assert len(result.strategy) == 0

    def test_rejects_negative_max(self, small_model):
        evaluator = ObjectiveEvaluator(small_model, kind="simplified")
        with pytest.raises(InvalidParameter):
            greedy_over_actions(evaluator, [], max_channels=-1)

    def test_allow_reuse_permits_parallel_channels(self, small_model):
        evaluator = ObjectiveEvaluator(small_model, kind="simplified")
        omega = [Action("b", 1.0)]
        result = greedy_over_actions(
            evaluator, omega, max_channels=3, allow_reuse=True
        )
        # the single action may be picked repeatedly (though it won't help
        # U', the loop must terminate and stay within max_channels)
        assert len(result.strategy) <= 3
