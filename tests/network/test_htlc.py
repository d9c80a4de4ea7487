"""Unit tests for the HTLC layer (atomic multi-hop payments).

The router under test is an HTLC-mode engine's ``htlc_router``, bound to
the engine's array state (the ``bound_router`` fixture).
"""

import pytest

from repro.errors import RoutingError
from repro.network.fees import ConstantFee, LinearFee
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcError, HtlcState


@pytest.fixture
def line4() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 10.0)
    graph.add_channel("b", "c", 10.0, 10.0)
    graph.add_channel("c", "d", 10.0, 10.0)
    return graph


def total_coins(graph: ChannelGraph) -> float:
    return graph.total_capacity()


def pay(router, path, amount: float):
    """Lock ``path`` and settle at once when every hop locked."""
    payment = router.lock(path, amount)
    if payment.state is HtlcState.PENDING:
        router.settle(payment)
    return payment


class TestLockSettle:
    def test_happy_path_settles(self, line4, bound_router):
        bound = bound_router(line4)
        payment = pay(bound.router, ["a", "b", "c", "d"], 4.0)
        assert payment.state is HtlcState.SETTLED
        bound.write_back()
        assert line4.channels_between("a", "b")[0].balance("a") == 6.0
        assert line4.channels_between("c", "d")[0].balance("d") == 14.0

    def test_coins_conserved_after_settle(self, line4, bound_router):
        before = total_coins(line4)
        bound = bound_router(line4)
        pay(bound.router, ["a", "b", "c", "d"], 3.0)
        assert total_coins(bound.write_back()) == pytest.approx(before)

    def test_lock_reserves_funds(self, line4, bound_router):
        bound = bound_router(line4)
        payment = bound.router.lock(["a", "b", "c"], 8.0)
        assert payment.state is HtlcState.PENDING
        # a's side of (a,b) is down by 8; b cannot re-spend it yet
        assert bound.balance("a", "b") == 2.0
        assert bound.balance("b", "a") == 10.0
        assert bound.router.locked_capital() == pytest.approx(16.0)

    def test_concurrent_payments_contend(self, line4, bound_router):
        bound = bound_router(line4)
        router = bound.router
        first = router.lock(["a", "b"], 7.0)
        second = router.lock(["a", "b"], 7.0)  # only 3 left
        assert first.state is HtlcState.PENDING
        assert second.state is HtlcState.FAILED
        router.settle(first)
        assert bound.balance("b", "a") == 17.0

    def test_fees_accrue_to_intermediaries(self, line4, bound_router):
        bound = bound_router(line4, fee=ConstantFee(0.5))
        payment = pay(bound.router, ["a", "b", "c", "d"], 2.0)
        assert payment.fees_per_node == pytest.approx({"b": 0.5, "c": 0.5})
        # b's total coins rose by its fee
        assert bound.write_back().balance_of("b") == pytest.approx(20.5)

    def test_linear_fee_compounds(self, line4, bound_router):
        bound = bound_router(line4, fee=LinearFee(0.0, 0.1))
        payment = pay(bound.router, ["a", "b", "c", "d"], 1.0)
        assert payment.fees_per_node["c"] == pytest.approx(0.1)
        assert payment.fees_per_node["b"] == pytest.approx(0.11)


class TestFailureAtomicity:
    def test_mid_path_failure_unwinds_everything(self, bound_router):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 0.0)
        graph.add_channel("b", "c", 1.0, 0.0)  # too thin
        bound = bound_router(graph)
        before = bound.state.balances.copy()
        payment = bound.router.lock(["a", "b", "c"], 5.0)
        assert payment.state is HtlcState.FAILED
        assert payment.failure_reason == "no-balance"
        assert (bound.state.balances == before).all()

    def test_explicit_fail_restores(self, line4, bound_router):
        before = total_coins(line4)
        bound = bound_router(line4)
        payment = bound.router.lock(["a", "b", "c"], 5.0)
        bound.router.fail(payment)
        assert payment.state is HtlcState.FAILED
        assert total_coins(bound.write_back()) == pytest.approx(before)
        assert line4.channels_between("a", "b")[0].balance("a") == 10.0

    def test_double_settle_rejected(self, line4, bound_router):
        router = bound_router(line4).router
        payment = pay(router, ["a", "b"], 1.0)
        with pytest.raises(HtlcError):
            router.settle(payment)

    def test_fail_after_settle_rejected(self, line4, bound_router):
        router = bound_router(line4).router
        payment = pay(router, ["a", "b"], 1.0)
        with pytest.raises(HtlcError):
            router.fail(payment)


class TestValidation:
    def test_short_path_rejected(self, line4, bound_router):
        with pytest.raises(RoutingError):
            bound_router(line4).router.lock(["a"], 1.0)

    def test_nonpositive_amount_rejected(self, line4, bound_router):
        with pytest.raises(HtlcError):
            bound_router(line4).router.lock(["a", "b"], 0.0)

    def test_in_flight_listing(self, line4, bound_router):
        router = bound_router(line4).router
        p1 = router.lock(["a", "b"], 1.0)
        p2 = router.lock(["c", "d"], 1.0)
        assert len(router.in_flight) == 2
        router.settle(p1)
        router.fail(p2)
        assert router.in_flight == ()

    def test_circular_self_payment_supported(self, bound_router):
        """A circular self-payment (as liquidity depletion sends) settles
        cleanly."""
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 0.0)
        graph.add_channel("b", "c", 10.0, 0.0)
        graph.add_channel("c", "a", 10.0, 0.0)
        bound = bound_router(graph)
        payment = pay(bound.router, ["a", "b", "c", "a"], 4.0)
        assert payment.state is HtlcState.SETTLED
        assert bound.balance("a", "c") == 4.0

    def test_path_repeating_a_hop_rejected(self, line4, bound_router):
        with pytest.raises(RoutingError, match="repeats a hop"):
            bound_router(line4).router.lock(["a", "b", "a", "b"], 1.0)

    def test_lock_outside_a_run_rejected(self, line4):
        from repro.simulation.fastpath import BatchedSimulationEngine

        engine = BatchedSimulationEngine(line4, payment_mode="htlc")
        with pytest.raises(HtlcError, match="first run"):
            engine.htlc_router.lock(["a", "b"], 1.0)
