"""Unit tests for the joining-user utility model (Section II-C)."""

import math

import pytest

from repro.core.strategy import Action, Strategy
from repro.core.utility import JoiningUserModel
from repro.errors import InvalidParameter
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.transactions.distributions import UniformDistribution


@pytest.fixture
def line3_graph() -> ChannelGraph:
    return ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=10.0)


@pytest.fixture
def model(line3_graph) -> JoiningUserModel:
    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.1,
        fee_avg=1.0,
        fee_out_avg=1.0,
        total_tx_rate=3.0,  # 1 per existing node
        user_tx_rate=1.0,
        zipf_s=0.0,  # uniform ranking for hand-computable numbers
    )
    return JoiningUserModel(
        line3_graph,
        "u",
        params,
        distribution=UniformDistribution.from_graph(line3_graph),
    )


class TestConstruction:
    def test_rejects_user_already_present(self, line3_graph):
        with pytest.raises(InvalidParameter):
            JoiningUserModel(line3_graph, "a")

    def test_rejects_empty_graph(self):
        with pytest.raises(InvalidParameter):
            JoiningUserModel(ChannelGraph(), "u")

    def test_own_probs_uniform_with_uniform_distribution(self, model):
        assert model.own_probs == pytest.approx(
            {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        )

    def test_own_probs_zipf_by_default(self, line3_graph):
        model = JoiningUserModel(line3_graph, "u", ModelParameters(zipf_s=1.0))
        probs = model.own_probs
        assert probs["b"] == max(probs.values())  # b has highest degree
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_explicit_own_probs_normalised(self, line3_graph):
        model = JoiningUserModel(
            line3_graph, "u", ModelParameters(), own_probs={"a": 2.0, "b": 2.0}
        )
        assert model.own_probs == pytest.approx({"a": 0.5, "b": 0.5})

    def test_sender_rates_default_equal_split(self, model):
        assert model.sender_rates == pytest.approx(
            {"a": 1.0, "b": 1.0, "c": 1.0}
        )


class TestExpectedFees:
    def test_disconnected_infinite(self, model):
        assert math.isinf(model.expected_fees(Strategy()))

    def test_connect_to_middle(self, model):
        # u-b: distances u->a=2, u->b=1, u->c=2; N_u=1, f=1, uniform 1/3
        fees = model.expected_fees(Strategy([Action("b", 1.0)]))
        assert fees == pytest.approx((2 + 1 + 2) / 3)

    def test_connect_to_end(self, model):
        # u-a: d(u,a)=1, d(u,b)=2, d(u,c)=3
        fees = model.expected_fees(Strategy([Action("a", 1.0)]))
        assert fees == pytest.approx((1 + 2 + 3) / 3)

    def test_more_channels_weakly_reduce_fees(self, model):
        one = model.expected_fees(Strategy([Action("a", 1.0)]))
        two = model.expected_fees(
            Strategy([Action("a", 1.0), Action("c", 1.0)])
        )
        assert two <= one

    def test_intermediaries_convention(self, line3_graph):
        params = ModelParameters(zipf_s=0.0, user_tx_rate=1.0, fee_out_avg=1.0)
        model = JoiningUserModel(
            line3_graph,
            "u",
            params,
            distribution=UniformDistribution.from_graph(line3_graph),
            hop_convention="intermediaries",
        )
        fees = model.expected_fees(Strategy([Action("b", 1.0)]))
        # intermediary counts: a:1, b:0, c:1
        assert fees == pytest.approx(2 / 3)


class TestExpectedRevenue:
    def test_no_channels_no_revenue(self, model):
        assert model.expected_revenue(Strategy()) == 0.0

    def test_leaf_position_no_revenue(self, model):
        assert model.expected_revenue(Strategy([Action("b", 1.0)])) == 0.0

    def test_bridge_position_earns(self, model):
        # u connects to a and c: path a-u-c (length 2) ties with a-b-c, so
        # u carries half the a<->c traffic: 2 ordered pairs * 1/2 share *
        # rate 1 * p 1/2 * f_avg 1 = 0.5
        revenue = model.expected_revenue(
            Strategy([Action("a", 1.0), Action("c", 1.0)])
        )
        assert revenue == pytest.approx(0.5)

    def test_own_traffic_earns_nothing(self, line3_graph):
        # a single node network: only u's own traffic exists
        solo = ChannelGraph.from_edges([("a", "b")])
        params = ModelParameters(zipf_s=0.0)
        model = JoiningUserModel(
            solo, "u", params,
            distribution=UniformDistribution.from_graph(solo),
        )
        strategy = Strategy([Action("a", 1.0), Action("b", 1.0)])
        # a<->b shortest path is direct; u carries nothing
        assert model.expected_revenue(strategy) == 0.0


class TestUtilityAggregation:
    def test_utility_combines_components(self, model):
        strategy = Strategy([Action("a", 1.0), Action("c", 1.0)])
        expected = (
            model.expected_revenue(strategy)
            - model.expected_fees(strategy)
            - strategy.utility_cost(model.params)
        )
        assert model.utility(strategy) == pytest.approx(expected)

    def test_disconnected_utility_is_minus_inf(self, model):
        assert model.utility(Strategy()) == -math.inf

    def test_benefit_shifts_by_onchain_cost(self, model):
        strategy = Strategy([Action("b", 1.0)])
        assert model.objective(strategy, "benefit") == pytest.approx(
            model.params.onchain_alternative_cost() + model.utility(strategy)
        )

    def test_objective_dispatch(self, model):
        strategy = Strategy([Action("b", 1.0)])
        assert model.objective(strategy, "utility") == model.utility(strategy)
        assert model.objective(strategy, "simplified") == pytest.approx(
            model.expected_revenue(strategy) - model.expected_fees(strategy)
        )
        with pytest.raises(InvalidParameter):
            model.objective(strategy, "nope")

    def test_simplified_ignores_channel_costs(self, model):
        cheap = Strategy([Action("b", 0.0)])
        pricey = Strategy([Action("b", 8.0)])
        assert model.objective(cheap) == pytest.approx(
            model.objective(pricey)
        )
        assert model.utility(cheap) > model.utility(pricey)


class TestWorkingCopyConsistency:
    def test_evaluations_do_not_mutate_base(self, line3_graph, model):
        before = line3_graph.num_channels()
        model.utility(Strategy([Action("a", 1.0)]))
        model.utility(Strategy([Action("b", 1.0), Action("c", 1.0)]))
        assert line3_graph.num_channels() == before

    def test_alternating_strategies_consistent(self, model):
        s1 = Strategy([Action("a", 1.0)])
        s2 = Strategy([Action("b", 1.0), Action("c", 2.0)])
        first = model.utility(s1)
        model.utility(s2)
        again = model.utility(s1)
        assert first == pytest.approx(again)

    def test_parallel_channels_in_strategy(self, model):
        strategy = Strategy([Action("b", 1.0), Action("b", 1.0)])
        value = model.utility(strategy)
        assert not math.isnan(value)
        # parallel channel doubles cost but not connectivity
        single = model.utility(Strategy([Action("b", 1.0)]))
        assert value < single

    def test_with_strategy_returns_fresh_graph(self, model):
        strategy = Strategy([Action("a", 2.0)])
        applied = model.with_strategy(strategy)
        assert applied.has_channel("u", "a")
        assert "u" not in model.base_graph

    def test_peer_deposit_match(self, line3_graph):
        model = JoiningUserModel(
            line3_graph, "u", ModelParameters(), peer_deposit="match"
        )
        graph = model.with_strategy(Strategy([Action("a", 3.0)]))
        channel = graph.channels_between("u", "a")[0]
        assert channel.balance("a") == pytest.approx(3.0)

    def test_peer_deposit_fixed(self, line3_graph):
        model = JoiningUserModel(
            line3_graph, "u", ModelParameters(), peer_deposit=0.0
        )
        graph = model.with_strategy(Strategy([Action("a", 3.0)]))
        channel = graph.channels_between("u", "a")[0]
        assert channel.balance("a") == 0.0

    def test_invalid_peer_deposit(self, line3_graph):
        with pytest.raises(InvalidParameter):
            JoiningUserModel(
                line3_graph, "u", ModelParameters(), peer_deposit="half"
            )


class TestRoutingAmount:
    def test_small_lock_blocks_reduced_graph(self, line3_graph):
        params = ModelParameters(zipf_s=0.0)
        model = JoiningUserModel(
            line3_graph,
            "u",
            params,
            distribution=UniformDistribution.from_graph(line3_graph),
            routing_amount=5.0,
            peer_deposit="match",
        )
        # lock below the routing amount: the channel cannot carry traffic
        thin = model.expected_fees(Strategy([Action("b", 1.0)]))
        thick = model.expected_fees(Strategy([Action("b", 5.0)]))
        assert math.isinf(thin)
        assert not math.isinf(thick)
