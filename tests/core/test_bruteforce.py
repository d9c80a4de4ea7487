"""Unit tests for the brute-force baseline optimiser."""

import pytest

from repro.core.algorithms.bruteforce import brute_force
from repro.core.strategy import Action
from repro.core.utility import JoiningUserModel
from repro.errors import InvalidParameter
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.snapshots import barabasi_albert_snapshot


@pytest.fixture
def model() -> JoiningUserModel:
    graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=5.0)
    params = ModelParameters(
        onchain_cost=1.0, fee_avg=0.5, fee_out_avg=0.1,
        total_tx_rate=20.0, user_tx_rate=1.0, zipf_s=1.0,
    )
    return JoiningUserModel(graph, "u", params)


class TestBruteForce:
    def test_finds_global_optimum_small(self, model):
        result = brute_force(model, budget=10.0, lock=1.0)
        # enumerate manually: all subsets of {a, b, c} with lock 1
        from itertools import combinations

        from repro.core.strategy import Strategy

        best = float("-inf")
        for size in range(1, 4):
            for subset in combinations(["a", "b", "c"], size):
                strategy = Strategy([Action(p, 1.0) for p in subset])
                best = max(best, model.objective(strategy))
        assert result.objective_value == pytest.approx(best)

    def test_respects_budget(self, model):
        result = brute_force(model, budget=2.5, lock=1.0)
        assert len(result.strategy) <= 1  # each channel costs 2.0

    def test_custom_omega(self, model):
        omega = [Action("b", 0.0), Action("b", 2.0)]
        result = brute_force(model, budget=10.0, omega=omega)
        assert all(a.peer == "b" for a in result.strategy)

    def test_max_subset_size(self, model):
        result = brute_force(model, budget=10.0, lock=1.0, max_subset_size=1)
        assert len(result.strategy) <= 1

    def test_objective_selection(self, model):
        simplified = brute_force(model, budget=6.0, lock=1.0)
        utility = brute_force(model, budget=6.0, lock=1.0, objective="utility")
        # utility subtracts channel costs, so its optimum uses <= channels
        assert len(utility.strategy) <= len(simplified.strategy)

    def test_rejects_nonpositive_budget(self, model):
        with pytest.raises(InvalidParameter):
            brute_force(model, budget=-1.0)

    def test_explored_counter(self, model):
        result = brute_force(model, budget=10.0, lock=1.0)
        assert result.details["subsets_explored"] == 7  # 3 + 3 + 1


def test_budget_on_a_float_floor_edge_affords_every_channel():
    # 0.3 / 0.1 is 2.9999999999999996: three channels fit within the
    # budget slack, so subsets of three are explored too.
    graph = barabasi_albert_snapshot(8, capacity_mu=3.0, seed=1)
    model = JoiningUserModel(graph, "joiner", ModelParameters(onchain_cost=0.1))
    result = brute_force(model, budget=0.3, lock=0.0)
    assert result.details["subsets_explored"] == 8 + 28 + 56
    assert len(result.strategy) == 3
