"""Unit tests for the HTLC layer (atomic multi-hop payments)."""

import pytest

from repro.errors import RoutingError
from repro.network.channel import Channel
from repro.network.fees import ConstantFee, LinearFee
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcError, HtlcRouter, HtlcState


@pytest.fixture
def line4() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 10.0)
    graph.add_channel("b", "c", 10.0, 10.0)
    graph.add_channel("c", "d", 10.0, 10.0)
    return graph


def total_coins(graph: ChannelGraph) -> float:
    return graph.total_capacity()


def pay(router: HtlcRouter, path, amount: float):
    """Lock ``path`` and settle at once when every hop locked."""
    payment = router.lock(path, amount)
    if payment.state is HtlcState.PENDING:
        router.settle(payment)
    return payment


class TestChannelWithdraw:
    def test_withdraw_reduces_balance(self):
        channel = Channel("u", "v", 5.0, 5.0)
        channel.withdraw("u", 3.0)
        assert channel.balance("u") == 2.0
        assert channel.capacity == 7.0

    def test_withdraw_insufficient(self):
        from repro.errors import InsufficientBalance

        channel = Channel("u", "v", 1.0, 5.0)
        with pytest.raises(InsufficientBalance):
            channel.withdraw("u", 2.0)

    def test_withdraw_negative(self):
        from repro.errors import InvalidParameter

        channel = Channel("u", "v", 1.0, 5.0)
        with pytest.raises(InvalidParameter):
            channel.withdraw("u", -1.0)


class TestLockSettle:
    def test_happy_path_settles(self, line4):
        router = HtlcRouter(line4)
        payment = pay(router, ["a", "b", "c", "d"], 4.0)
        assert payment.state is HtlcState.SETTLED
        assert line4.channels_between("a", "b")[0].balance("a") == 6.0
        assert line4.channels_between("c", "d")[0].balance("d") == 14.0

    def test_coins_conserved_after_settle(self, line4):
        before = total_coins(line4)
        pay(HtlcRouter(line4), ["a", "b", "c", "d"], 3.0)
        assert total_coins(line4) == pytest.approx(before)

    def test_lock_reserves_funds(self, line4):
        router = HtlcRouter(line4)
        payment = router.lock(["a", "b", "c"], 8.0)
        assert payment.state is HtlcState.PENDING
        # a's side of (a,b) is down by 8; b cannot re-spend it yet
        assert line4.channels_between("a", "b")[0].balance("a") == 2.0
        assert line4.channels_between("a", "b")[0].balance("b") == 10.0
        assert router.locked_capital() == pytest.approx(16.0)

    def test_concurrent_payments_contend(self, line4):
        router = HtlcRouter(line4)
        first = router.lock(["a", "b"], 7.0)
        second = router.lock(["a", "b"], 7.0)  # only 3 left
        assert first.state is HtlcState.PENDING
        assert second.state is HtlcState.FAILED
        router.settle(first)
        assert line4.channels_between("a", "b")[0].balance("b") == 17.0

    def test_fees_accrue_to_intermediaries(self, line4):
        router = HtlcRouter(line4, fee=ConstantFee(0.5))
        payment = pay(router, ["a", "b", "c", "d"], 2.0)
        assert payment.fees_per_node == pytest.approx({"b": 0.5, "c": 0.5})
        # b's total coins rose by its fee
        assert line4.balance_of("b") == pytest.approx(20.5)

    def test_linear_fee_compounds(self, line4):
        router = HtlcRouter(line4, fee=LinearFee(0.0, 0.1))
        payment = pay(router, ["a", "b", "c", "d"], 1.0)
        assert payment.fees_per_node["c"] == pytest.approx(0.1)
        assert payment.fees_per_node["b"] == pytest.approx(0.11)


class TestFailureAtomicity:
    def test_mid_path_failure_unwinds_everything(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 0.0)
        graph.add_channel("b", "c", 1.0, 0.0)  # too thin
        router = HtlcRouter(graph)
        before = {
            c.channel_id: (c.balance(c.u), c.balance(c.v))
            for c in graph.channels
        }
        payment = router.lock(["a", "b", "c"], 5.0)
        assert payment.state is HtlcState.FAILED
        after = {
            c.channel_id: (c.balance(c.u), c.balance(c.v))
            for c in graph.channels
        }
        assert before == after

    def test_explicit_fail_restores(self, line4):
        router = HtlcRouter(line4)
        before = total_coins(line4)
        payment = router.lock(["a", "b", "c"], 5.0)
        router.fail(payment)
        assert payment.state is HtlcState.FAILED
        assert total_coins(line4) == pytest.approx(before)
        assert line4.channels_between("a", "b")[0].balance("a") == 10.0

    def test_double_settle_rejected(self, line4):
        router = HtlcRouter(line4)
        payment = pay(router, ["a", "b"], 1.0)
        with pytest.raises(HtlcError):
            router.settle(payment)

    def test_fail_after_settle_rejected(self, line4):
        router = HtlcRouter(line4)
        payment = pay(router, ["a", "b"], 1.0)
        with pytest.raises(HtlcError):
            router.fail(payment)


class TestValidation:
    def test_short_path_rejected(self, line4):
        with pytest.raises(RoutingError):
            HtlcRouter(line4).lock(["a"], 1.0)

    def test_nonpositive_amount_rejected(self, line4):
        with pytest.raises(HtlcError):
            HtlcRouter(line4).lock(["a", "b"], 0.0)

    def test_in_flight_listing(self, line4):
        router = HtlcRouter(line4)
        p1 = router.lock(["a", "b"], 1.0)
        p2 = router.lock(["c", "d"], 1.0)
        assert len(router.in_flight) == 2
        router.settle(p1)
        router.fail(p2)
        assert router.in_flight == ()

    def test_circular_self_payment_supported(self, line4):
        """A circular self-payment (as liquidity depletion sends) settles
        cleanly."""
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 0.0)
        graph.add_channel("b", "c", 10.0, 0.0)
        graph.add_channel("c", "a", 10.0, 0.0)
        router = HtlcRouter(graph)
        payment = pay(router, ["a", "b", "c", "a"], 4.0)
        assert payment.state is HtlcState.SETTLED
        assert graph.channels_between("c", "a")[0].balance("a") == 4.0
