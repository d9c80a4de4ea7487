"""Unit tests for the caching objective evaluator."""

import math

import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.core.strategy import Action, Strategy
from repro.core.utility import JoiningUserModel
from repro.errors import InvalidParameter, NodeNotFound
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters


@pytest.fixture
def evaluator() -> ObjectiveEvaluator:
    graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")])
    model = JoiningUserModel(graph, "u", ModelParameters(zipf_s=0.0))
    return ObjectiveEvaluator(model, kind="simplified")


class TestCaching:
    def test_repeat_evaluation_cached(self, evaluator):
        strategy = Strategy([Action("b", 1.0)])
        first = evaluator(strategy)
        second = evaluator(strategy)
        assert first == second
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1

    def test_equivalent_strategies_share_cache(self, evaluator):
        s1 = Strategy([Action("a", 1.0), Action("b", 2.0)])
        s2 = Strategy([Action("b", 2.0), Action("a", 1.0)])
        evaluator(s1)
        evaluator(s2)
        assert evaluator.evaluations == 1

    def test_marginal(self, evaluator):
        base = Strategy([Action("b", 1.0)])
        gain = evaluator.marginal(base, Action("a", 1.0))
        expected = evaluator(base.with_action(Action("a", 1.0))) - evaluator(base)
        assert gain == pytest.approx(expected)

    def test_reset_counters(self, evaluator):
        evaluator(Strategy([Action("a", 1.0)]))
        evaluator.reset_counters()
        assert evaluator.evaluations == 0
        assert evaluator.cache_hits == 0

    def test_clear_forces_recompute(self, evaluator):
        strategy = Strategy([Action("a", 1.0)])
        evaluator(strategy)
        evaluator.clear()
        evaluator(strategy)
        assert evaluator.evaluations == 1

    def test_max_cache_evicts(self):
        graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")])
        model = JoiningUserModel(graph, "u", ModelParameters(zipf_s=0.0))
        evaluator = ObjectiveEvaluator(model, max_cache=1)
        evaluator(Strategy([Action("a", 1.0)]))
        evaluator(Strategy([Action("b", 1.0)]))
        evaluator(Strategy([Action("a", 1.0)]))  # evicted, recompute
        assert evaluator.evaluations == 3

    def test_invalid_kind(self, evaluator):
        with pytest.raises(InvalidParameter):
            ObjectiveEvaluator(evaluator.model, kind="bogus")

    def test_invalid_max_cache(self, evaluator):
        with pytest.raises(InvalidParameter):
            ObjectiveEvaluator(evaluator.model, max_cache=0)


def chain_model() -> JoiningUserModel:
    graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")])
    return JoiningUserModel(graph, "u", ModelParameters(zipf_s=0.0))


A = Strategy([Action("a", 1.0)])
B = Strategy([Action("b", 1.0)])
C = Strategy([Action("c", 1.0)])
AB = Strategy([Action("a", 1.0), Action("b", 1.0)])


def one_at_a_time(strategies, max_cache=None):
    """Values, counters, cache keys and model stats of the scalar loop."""
    evaluator = ObjectiveEvaluator(chain_model(), max_cache=max_cache)
    values = [evaluator(strategy) for strategy in strategies]
    return values, evaluator


class TestMany:
    def test_values_in_input_order(self, evaluator):
        strategies = [C, A, AB, B]
        values = evaluator.many(strategies)
        model = chain_model()
        assert values == [model.simplified_utility(s) for s in strategies]
        assert evaluator.evaluations == 4
        assert evaluator.cache_hits == 0

    def test_duplicate_in_one_batch_scored_once(self, evaluator):
        values = evaluator.many([A, B, A])
        assert values[0] == values[2]
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 1
        assert evaluator.model.stats == {"revenue_evals": 2, "fee_evals": 2}

    def test_earlier_hits_not_rescored(self, evaluator):
        first = evaluator(A)
        values = evaluator.many([B, A])
        assert values[1] == first
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 1
        assert evaluator.model.stats["fee_evals"] == 2

    @pytest.mark.parametrize("max_cache", [1, 2, None])
    def test_counts_match_scalar_loop(self, max_cache):
        strategies = [A, B, A, C, B, AB, A, Strategy()]
        expected, scalar = one_at_a_time(strategies, max_cache)
        evaluator = ObjectiveEvaluator(chain_model(), max_cache=max_cache)
        assert evaluator.many(strategies) == expected
        assert evaluator.evaluations == scalar.evaluations
        assert evaluator.cache_hits == scalar.cache_hits
        assert list(evaluator._cache.items()) == list(scalar._cache.items())
        assert evaluator.model.stats == scalar.model.stats

    def test_max_cache_fifo_within_batch(self):
        evaluator = ObjectiveEvaluator(chain_model(), max_cache=1)
        values = evaluator.many([A, B, A])
        # B evicts A, so the second A is scored again, as one at a time.
        assert evaluator.evaluations == 3
        assert evaluator.cache_hits == 0
        assert values[0] == values[2]
        assert list(evaluator._cache) == [A]

    def test_empty_list(self, evaluator):
        assert evaluator.many([]) == []
        assert evaluator.evaluations == 0
        assert evaluator.cache_hits == 0
        assert evaluator.model.stats == {"revenue_evals": 0, "fee_evals": 0}

    def test_disconnected_scores_minus_inf(self, evaluator):
        assert evaluator.many([Strategy(), A])[0] == -math.inf

    def test_failed_batch_leaves_no_placeholders(self, evaluator):
        with pytest.raises(NodeNotFound):
            evaluator.many([A, Strategy([Action("nobody", 1.0)])])
        assert evaluator.many([A]) == [chain_model().simplified_utility(A)]
