"""Payment routing through the simulation engine.

``find_route`` asks the engine for one payment's path (node labels) or
its failure reason; ``execute`` runs payments through the event queue
and returns the metrics, with the final balances written back to the
graph's channels.
"""

import pytest

from repro.network.fees import ConstantFee, LinearFee
from repro.network.graph import ChannelGraph
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine


@pytest.fixture
def line4() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 10.0)
    graph.add_channel("b", "c", 10.0, 10.0)
    graph.add_channel("c", "d", 10.0, 10.0)
    return graph


def payment(sender, receiver, amount, time=1.0):
    return PaymentEvent(time=time, sender=sender, receiver=receiver, amount=amount)


def find_route(graph, sender, receiver, amount, **engine_kwargs):
    engine = BatchedSimulationEngine(graph, **engine_kwargs)
    engine.run()  # freezes the array state routes are searched on
    return engine._find_path(sender, receiver, amount, -1)


def execute(graph, payments, **engine_kwargs):
    engine = BatchedSimulationEngine(graph, **engine_kwargs)
    for i, (sender, receiver, amount) in enumerate(payments):
        engine.schedule(payment(sender, receiver, amount, time=float(i + 1)))
    return engine.run()


class TestFindRoute:
    def test_direct_route(self, line4):
        assert find_route(line4, "a", "b", 1.0) == ["a", "b"]
        assert execute(line4, [("a", "b", 1.0)]).fees_paid["a"] == 0.0

    def test_multi_hop_route(self, line4):
        assert find_route(line4, "a", "d", 1.0) == ["a", "b", "c", "d"]
        metrics = execute(line4, [("a", "d", 1.0)])
        assert set(metrics.revenue) == {"b", "c"}

    def test_respects_capacity(self, line4):
        assert find_route(line4, "a", "d", 11.0) == "no-capacity-path"

    def test_capacity_direction_matters(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 0.0)
        assert find_route(graph, "a", "b", 5.0) == ["a", "b"]
        assert find_route(graph, "b", "a", 5.0) == "no-capacity-path"

    def test_unknown_endpoint(self, line4):
        assert find_route(line4, "a", "ghost", 1.0) == "unknown-endpoint"

    def test_sender_equals_receiver(self, line4):
        assert find_route(line4, "a", "a", 1.0) == "other"

    def test_fee_accumulates_per_intermediary(self, line4):
        metrics = execute(line4, [("a", "d", 2.0)], fee=ConstantFee(0.5))
        # 2 intermediaries, constant fee: total fee = 1.0
        assert metrics.fees_paid["a"] == pytest.approx(1.0)

    def test_linear_fee_compounds_toward_sender(self, line4):
        engine = BatchedSimulationEngine(line4, fee=LinearFee(0.0, 0.1))
        # c forwards 1.0 (fee 0.1); b forwards 1.1 (fee 0.11)
        assert engine.htlc_router.hop_amounts(3, 1.0) == pytest.approx(
            [1.21, 1.1, 1.0]
        )
        metrics = execute(line4, [("a", "d", 1.0)], fee=LinearFee(0.0, 0.1))
        assert metrics.fees_paid["a"] == pytest.approx(0.1 + 0.11)

    def test_no_fee_forwarding_mode(self, line4):
        fee = LinearFee(0.0, 0.1)
        engine = BatchedSimulationEngine(line4, fee=fee, fee_forwarding=False)
        assert engine.htlc_router.hop_amounts(3, 1.0) == [1.0, 1.0, 1.0]
        metrics = execute(line4, [("a", "d", 1.0)], fee=fee, fee_forwarding=False)
        assert metrics.fees_paid["a"] == pytest.approx(0.0)
        # every intermediary earns fee(amount) on top of the flat hops
        assert dict(metrics.revenue) == pytest.approx({"b": 0.1, "c": 0.1})


class TestExecute:
    def test_success_updates_balances(self, line4):
        assert execute(line4, [("a", "d", 4.0)]).succeeded == 1
        ab = line4.channels_between("a", "b")[0]
        assert ab.balance("a") == pytest.approx(6.0)
        assert ab.balance("b") == pytest.approx(14.0)

    def test_fee_credited_to_intermediaries(self, line4):
        metrics = execute(line4, [("a", "d", 1.0)], fee=ConstantFee(0.25))
        assert metrics.succeeded == 1
        assert dict(metrics.revenue) == pytest.approx({"b": 0.25, "c": 0.25})

    def test_intermediary_balance_gains_fee(self, line4):
        execute(line4, [("a", "d", 1.0)], fee=ConstantFee(0.5))
        # b received 1.0 + 2 fees worth and forwarded 1.0 + 1 fee
        assert line4.balance_of("b") == pytest.approx(20.0 + 0.5)

    def test_failure_leaves_balances_untouched(self, line4):
        before = {c.channel_id: c.balance(c.u) for c in line4.channels}
        metrics = execute(line4, [("a", "d", 100.0)])
        assert metrics.failure_reasons == {"no-capacity-path": 1}
        after = {c.channel_id: c.balance(c.u) for c in line4.channels}
        assert before == after

    def test_hop_short_of_fees_fails_atomically(self):
        # a->b can carry the amount (1.0) but not amount + b's fee (1.5):
        # the route is found, the payment fails, no hop moves.
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.2, 0.0)
        graph.add_channel("b", "c", 5.0, 0.0)
        before = {c.channel_id: c.balance(c.u) for c in graph.channels}
        metrics = execute(graph, [("a", "c", 1.0)], fee=ConstantFee(0.5))
        assert metrics.failure_reasons == {"split-balance": 1}
        assert {c.channel_id: c.balance(c.u) for c in graph.channels} == before

    def test_depletion_then_reverse_flow(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 5.0, 0.0)
        metrics = execute(graph, [("a", "b", 5.0), ("a", "b", 1.0), ("b", "a", 3.0)])
        assert (metrics.succeeded, metrics.failed) == (2, 1)
        assert metrics.failure_reasons == {"no-capacity-path": 1}
        assert graph.channels[0].balance("a") == pytest.approx(3.0)


class TestRouteFee:
    def test_sender_pays_amount_plus_route_fee(self, line4):
        metrics = execute(line4, [("a", "d", 2.0)], fee=LinearFee(0.01, 0.02))
        assert metrics.succeeded == 1
        first_hop = line4.channels_between("a", "b")[0]
        assert 10.0 - first_hop.balance("a") == pytest.approx(
            2.0 + metrics.fees_paid["a"]
        )
        assert sum(metrics.revenue.values()) == pytest.approx(
            metrics.fees_paid["a"]
        )
