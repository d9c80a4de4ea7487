"""Unit tests for :mod:`repro.network.routing`."""

import pytest

from repro.errors import RoutingError
from repro.network.fees import ConstantFee, LinearFee
from repro.network.graph import ChannelGraph
from repro.network.routing import Router


@pytest.fixture
def line4() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 10.0)
    graph.add_channel("b", "c", 10.0, 10.0)
    graph.add_channel("c", "d", 10.0, 10.0)
    return graph


class TestFindRoute:
    def test_direct_route(self, line4):
        route = Router(line4).find_route("a", "b", 1.0)
        assert route.nodes == ("a", "b")
        assert route.fee == 0.0

    def test_multi_hop_route(self, line4):
        route = Router(line4).find_route("a", "d", 1.0)
        assert route.nodes == ("a", "b", "c", "d")
        assert route.intermediaries == ("b", "c")

    def test_respects_capacity(self, line4):
        with pytest.raises(RoutingError):
            Router(line4).find_route("a", "d", 11.0)

    def test_capacity_direction_matters(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 0.0)
        router = Router(graph)
        assert router.find_route("a", "b", 5.0).nodes == ("a", "b")
        with pytest.raises(RoutingError):
            router.find_route("b", "a", 5.0)

    def test_unknown_endpoint(self, line4):
        with pytest.raises(RoutingError):
            Router(line4).find_route("a", "ghost", 1.0)

    def test_sender_equals_receiver(self, line4):
        with pytest.raises(RoutingError):
            Router(line4).find_route("a", "a", 1.0)

    def test_fee_accumulates_per_intermediary(self, line4):
        router = Router(line4, fee=ConstantFee(0.5))
        route = router.find_route("a", "d", 2.0)
        # 2 intermediaries, constant fee: total fee = 1.0
        assert route.fee == pytest.approx(1.0)

    def test_linear_fee_compounds_toward_sender(self, line4):
        router = Router(line4, fee=LinearFee(0.0, 0.1))
        route = router.find_route("a", "d", 1.0)
        # c forwards 1.0 (fee 0.1); b forwards 1.1 (fee 0.11)
        assert route.fee == pytest.approx(0.1 + 0.11)

    def test_no_fee_forwarding_mode(self, line4):
        router = Router(line4, fee=LinearFee(0.0, 0.1), fee_forwarding=False)
        route = router.find_route("a", "d", 1.0)
        assert route.fee == pytest.approx(0.0)


class TestExecute:
    def test_success_updates_balances(self, line4):
        router = Router(line4)
        outcome = router.execute("a", "d", 4.0)
        assert outcome.success
        ab = line4.channels_between("a", "b")[0]
        assert ab.balance("a") == pytest.approx(6.0)
        assert ab.balance("b") == pytest.approx(14.0)

    def test_fee_credited_to_intermediaries(self, line4):
        router = Router(line4, fee=ConstantFee(0.25))
        outcome = router.execute("a", "d", 1.0)
        assert outcome.success
        assert outcome.fees_per_node == pytest.approx(
            {"b": 0.25, "c": 0.25}
        )

    def test_intermediary_balance_gains_fee(self, line4):
        router = Router(line4, fee=ConstantFee(0.5))
        router.execute("a", "d", 1.0)
        # b received 1.0 + 2 fees worth and forwarded 1.0 + 1 fee
        assert line4.balance_of("b") == pytest.approx(20.0 + 0.5)

    def test_failure_leaves_balances_untouched(self, line4):
        router = Router(line4)
        before = {c.channel_id: c.balance(c.u) for c in line4.channels}
        outcome = router.execute("a", "d", 100.0)
        assert not outcome.success
        after = {c.channel_id: c.balance(c.u) for c in line4.channels}
        assert before == after

    def test_depletion_then_reverse_flow(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 5.0, 0.0)
        router = Router(graph)
        assert router.execute("a", "b", 5.0).success
        assert not router.execute("a", "b", 1.0).success
        assert router.execute("b", "a", 3.0).success

    def test_aggregate_balance_split_across_parallel_channels(self):
        # two parallel channels each with 3 on a's side: aggregate 6 but no
        # single channel can carry 5.
        graph = ChannelGraph()
        graph.add_channel("a", "b", 3.0, 0.0)
        graph.add_channel("a", "b", 3.0, 0.0)
        outcome = Router(graph).execute("a", "b", 5.0)
        assert not outcome.success
        assert "no single channel" in outcome.failure_reason

    def test_parallel_channel_picked_by_largest_balance(self):
        graph = ChannelGraph()
        small = graph.add_channel("a", "b", 2.0, 0.0)
        large = graph.add_channel("a", "b", 8.0, 0.0)
        Router(graph).execute("a", "b", 1.0)
        assert large.balance("a") == pytest.approx(7.0)
        assert small.balance("a") == pytest.approx(2.0)


class TestRouteFee:
    def test_sender_pays_amount_plus_route_fee(self, line4):
        router = Router(line4, fee=LinearFee(0.01, 0.02))
        outcome = router.execute("a", "d", 2.0)
        assert outcome.success
        first_hop = line4.channels_between("a", "b")[0]
        assert 10.0 - first_hop.balance("a") == pytest.approx(
            2.0 + outcome.route.fee
        )
        assert sum(outcome.fees_per_node.values()) == pytest.approx(
            outcome.route.fee
        )
