"""Unit tests for Algorithm 2 (exhaustive search over fund divisions)."""

import math

import pytest

from repro.core.algorithms.bruteforce import brute_force
from repro.core.algorithms.exhaustive import (
    count_divisions,
    exhaustive_discrete,
    fund_divisions,
)
from repro.core.algorithms.greedy import greedy_fixed_funds
from repro.core.strategy import ActionSpace
from repro.core.utility import JoiningUserModel
from repro.errors import InvalidParameter
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.snapshots import barabasi_albert_snapshot


@pytest.fixture
def model() -> JoiningUserModel:
    graph = ChannelGraph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d")], balance=5.0
    )
    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.05,
        fee_avg=0.5,
        fee_out_avg=0.1,
        total_tx_rate=20.0,
        user_tx_rate=2.0,
        zipf_s=1.0,
    )
    return JoiningUserModel(graph, "u", params, revenue_mode="fixed-rate")


class TestFundDivisions:
    def test_partitions_small(self):
        divisions = list(fund_divisions(3, 2))
        assert divisions == [(3, 0), (2, 1)]

    def test_compositions_small(self):
        divisions = set(fund_divisions(2, 2, unique_multisets=False))
        assert divisions == {(0, 2), (1, 1), (2, 0)}

    def test_division_sums_preserved(self):
        for division in fund_divisions(7, 4):
            assert sum(division) == 7

    def test_partitions_non_increasing(self):
        for division in fund_divisions(6, 3):
            assert list(division) == sorted(division, reverse=True)

    def test_count_matches_enumeration_compositions(self):
        assert count_divisions(5, 3) == len(
            list(fund_divisions(5, 3, unique_multisets=False))
        )
        assert count_divisions(5, 3) == math.comb(7, 2)

    def test_zero_units(self):
        assert list(fund_divisions(0, 3)) == [(0, 0, 0)]

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParameter):
            list(fund_divisions(-1, 2))
        with pytest.raises(InvalidParameter):
            list(fund_divisions(1, 0))


class TestExhaustiveDiscrete:
    def test_respects_budget(self, model):
        result = exhaustive_discrete(model, budget=4.0, granularity=1.0)
        assert result.strategy.budget_cost(model.params) <= 4.0 + 1e-9

    def test_locks_are_multiples_of_granularity(self, model):
        result = exhaustive_discrete(model, budget=4.0, granularity=0.5)
        for action in result.strategy:
            assert (action.locked / 0.5) == pytest.approx(
                round(action.locked / 0.5)
            )

    def test_at_least_as_good_as_fixed_lock_greedy(self, model):
        """Algorithm 2 explores lock=1.0 divisions among others."""
        budget = 4.0
        greedy = greedy_fixed_funds(model, budget=budget, lock=1.0)
        exhaustive = exhaustive_discrete(model, budget=budget, granularity=1.0)
        assert exhaustive.objective_value >= greedy.objective_value - 1e-9

    def test_ratio_against_bruteforce(self, model):
        budget = 4.0
        omega = ActionSpace.discrete(
            model.base_graph, "u", budget, 1.0, model.params
        )
        optimum = brute_force(model, budget=budget, omega=omega)
        result = exhaustive_discrete(model, budget=budget, granularity=1.0)
        if optimum.objective_value > 0:
            ratio = result.objective_value / optimum.objective_value
            assert ratio >= (1 - 1 / math.e) - 1e-9

    def test_max_divisions_truncates(self, model):
        result = exhaustive_discrete(
            model, budget=5.0, granularity=0.5, max_divisions=3
        )
        assert result.details["divisions_tried"] == 3
        assert result.details["truncated"]

    def test_details_record_combinatorics(self, model):
        result = exhaustive_discrete(model, budget=4.0, granularity=1.0)
        assert result.details["units"] == 4
        assert result.details["max_channels"] == 4
        assert result.details["divisions_tried"] >= 1

    def test_rejects_budget_below_one_channel(self, model):
        with pytest.raises(InvalidParameter):
            exhaustive_discrete(model, budget=0.5, granularity=0.1)

    def test_rejects_bad_granularity(self, model):
        with pytest.raises(InvalidParameter):
            exhaustive_discrete(model, budget=4.0, granularity=0.0)

    def test_granularity_tradeoff_coarser_is_fewer_divisions(self, model):
        fine = exhaustive_discrete(model, budget=4.0, granularity=0.5)
        coarse = exhaustive_discrete(model, budget=4.0, granularity=2.0)
        assert (
            coarse.details["divisions_tried"] < fine.details["divisions_tried"]
        )


def test_budget_on_a_float_floor_edge_counts_every_unit():
    # 0.3 / 0.1 is 2.9999999999999996: the budget holds three units of
    # granularity and three channels within the budget slack.
    graph = barabasi_albert_snapshot(8, capacity_mu=3.0, seed=1)
    model = JoiningUserModel(graph, "joiner", ModelParameters(onchain_cost=0.1))
    result = exhaustive_discrete(model, budget=0.3, granularity=0.1)
    assert result.details["units"] == 3
    assert result.details["max_channels"] == 3
