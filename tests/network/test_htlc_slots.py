"""HTLC slot caps (``max_accepted_htlcs``) and concurrent unwind paths.

Covers the jamming substrate: the HTLC router degrades per-direction slot
exhaustion into a failed lock with a ``"no-slots"`` reason, and
timeout/cancel restores balances *and* slots exactly — including with
many concurrent in-flight payments contending on the same channel (the
unwind path a jamming attack exercises). The router is an HTLC-mode
engine's, bound to its array state (the ``bound_router`` fixture).
"""

import pytest

from repro.errors import HtlcError as ErrorsHtlcError
from repro.errors import InvalidParameter
from repro.network.channel import DEFAULT_MAX_ACCEPTED_HTLCS, Channel
from repro.network.fees import ConstantFee, FeePolicy
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcError, HtlcState


@pytest.fixture
def line3() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 100.0, 100.0)
    graph.add_channel("b", "c", 100.0, 100.0)
    return graph


class TestChannelSlots:
    def test_default_cap_is_lightning_483(self):
        channel = Channel("u", "v", 1.0)
        assert DEFAULT_MAX_ACCEPTED_HTLCS == 483
        assert channel.max_accepted_htlcs == 483

    def test_htlc_error_is_the_errors_module_class(self):
        # HtlcError lives in repro.errors; the repro.network.htlc import
        # path must stay the same class.
        assert HtlcError is ErrorsHtlcError

    def test_open_close_tracks_per_direction(self, bound_router):
        graph = ChannelGraph()
        graph.add_channel("u", "v", 5.0, 5.0, max_accepted_htlcs=2)
        bound = bound_router(graph)
        router = bound.router
        held = [router.lock(["u", "v"], 1.0) for _ in range(2)]
        assert (bound.slots("u", "v"), bound.slots("v", "u")) == (2, 0)
        assert router.lock(["u", "v"], 1.0).failure_reason == "no-slots"
        assert router.lock(["v", "u"], 1.0).state is HtlcState.PENDING
        router.settle(held[0])
        assert bound.slots("u", "v") == 1
        assert router.lock(["u", "v"], 1.0).state is HtlcState.PENDING

    def test_unlimited_cap(self, bound_router):
        graph = ChannelGraph()
        graph.add_channel("u", "v", 5000.0, 5.0, max_accepted_htlcs=None)
        bound = bound_router(graph)
        payments = [bound.router.lock(["u", "v"], 1.0) for _ in range(1000)]
        assert all(p.state is HtlcState.PENDING for p in payments)
        assert bound.slots("u", "v") == 1000

    def test_invalid_cap_rejected(self):
        with pytest.raises(InvalidParameter):
            Channel("u", "v", 1.0, max_accepted_htlcs=0)

    def test_graph_passthrough_and_bulk_cap(self):
        graph = ChannelGraph()
        channel = graph.add_channel("a", "b", 1.0, max_accepted_htlcs=7)
        assert channel.max_accepted_htlcs == 7
        graph.set_htlc_slot_cap(3)
        assert channel.max_accepted_htlcs == 3
        with pytest.raises(InvalidParameter):
            graph.set_htlc_slot_cap(0)

    def test_copy_preserves_cap(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, max_accepted_htlcs=5)
        clone = graph.copy()
        assert clone.channels[0].max_accepted_htlcs == 5



class TestRouterSlotExhaustion:
    def test_lock_fails_with_no_slots_reason(self, line3, bound_router):
        for channel in line3.channels:
            channel.max_accepted_htlcs = 2
        router = bound_router(line3).router
        held = [router.lock(["a", "b", "c"], 1.0) for _ in range(2)]
        assert all(p.state is HtlcState.PENDING for p in held)
        rejected = router.lock(["a", "b", "c"], 1.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-slots"

    def test_no_balance_reason_distinct(self, line3, bound_router):
        router = bound_router(line3).router
        rejected = router.lock(["a", "b", "c"], 1000.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-balance"

    def test_slots_free_again_after_settle_and_fail(self, line3, bound_router):
        for channel in line3.channels:
            channel.max_accepted_htlcs = 1
        router = bound_router(line3).router
        p1 = router.lock(["a", "b", "c"], 1.0)
        assert router.lock(["a", "b", "c"], 1.0).state is HtlcState.FAILED
        router.settle(p1)
        p2 = router.lock(["a", "b", "c"], 1.0)
        assert p2.state is HtlcState.PENDING
        router.fail(p2)
        assert router.lock(["a", "b", "c"], 1.0).state is HtlcState.PENDING

    def test_mid_path_slot_failure_releases_earlier_hops(
        self, line3, bound_router
    ):
        # Jam only the second hop: a lock that aborts there must leave
        # the first hop's balance AND slot untouched.
        line3.channels_between("b", "c")[0].max_accepted_htlcs = 1
        bound = bound_router(line3)
        router = bound.router
        assert router.lock(["b", "c"], 1.0).state is HtlcState.PENDING
        before = bound.balance("a", "b")
        rejected = router.lock(["a", "b", "c"], 2.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-slots"
        assert bound.balance("a", "b") == before
        assert bound.slots("a", "b") == 0

    @pytest.mark.parametrize("reason", ["no-balance", "no-slots"])
    def test_failed_reserve_leaves_state_bit_identical(
        self, reason, bound_router
    ):
        # Reserving the first hop and handing it back computes
        # (b - h) + h, which is not b for this pair: a failed lock must
        # not touch the first hop at all.
        b, h = 3.4028523500198804, 0.9909626251286945
        graph = ChannelGraph()
        graph.add_channel("a", "b", b, 0.0)
        second = 0.5 if reason == "no-balance" else 10.0
        graph.add_channel("b", "c", second, 0.0, max_accepted_htlcs=1)
        bound = bound_router(graph)
        router = bound.router
        if reason == "no-slots":
            assert router.lock(["b", "c"], 1.0).state is HtlcState.PENDING
        balances = bound.state.balances.tobytes()
        slots = list(bound.state.slots_used)
        rejected = router.lock(["a", "b", "c"], h)
        assert rejected.failure_reason == reason
        assert bound.state.balances.tobytes() == balances
        assert bound.state.slots_used == slots
        assert bound.balance("a", "b") == b


class TestUpfrontCharges:
    """The per-attempt side of a two-sided FeePolicy at the lock layer.

    The unjamming countermeasure: every hop a lock actually places pays
    ``policy.upfront(hop_amount)`` to its receiver — settle or fail,
    the charge stands (and unwinding never refunds it). The
    charge is ledger-only: channel balances, slots, and routing are
    identical with or without it.
    """

    @staticmethod
    def policy(upfront_rate=0.1, upfront_base=0.5):
        return FeePolicy(
            success=ConstantFee(0.0),
            upfront_base=upfront_base,
            upfront_rate=upfront_rate,
        )

    def test_pending_lock_charges_every_placed_hop(self, line3, bound_router):
        router = bound_router(line3, fee=self.policy()).router
        payment = router.lock(["a", "b", "c"], 2.0)
        assert payment.state is HtlcState.PENDING
        # one charge per hop receiver: b (for a->b) and c (for b->c)
        assert set(payment.upfront_fees_per_node) == {"b", "c"}
        assert payment.upfront_fees_per_node["c"] == pytest.approx(
            0.5 + 0.1 * 2.0
        )
        assert payment.upfront_total == pytest.approx(
            sum(payment.upfront_fees_per_node.values())
        )

    def test_mid_path_failure_still_charges_placed_hops(
        self, line3, bound_router
    ):
        # Jam the second hop's slots: the a->b hop is placed (and pays),
        # the b->c hop never places (and doesn't).
        line3.channels_between("b", "c")[0].max_accepted_htlcs = 1
        router = bound_router(line3, fee=self.policy()).router
        router.lock(["b", "c"], 1.0)
        rejected = router.lock(["a", "b", "c"], 2.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-slots"
        assert set(rejected.upfront_fees_per_node) == {"b"}
        assert rejected.upfront_total == pytest.approx(0.5 + 0.1 * 2.0)

    def test_fail_never_refunds(self, line3, bound_router):
        router = bound_router(line3, fee=self.policy(upfront_base=0.0)).router
        failed = router.lock(["a", "b", "c"], 3.0)
        charged = failed.upfront_total
        router.fail(failed)
        assert failed.upfront_total == charged
        again = router.lock(["a", "b", "c"], 3.0)
        router.fail(again)
        assert again.upfront_total == pytest.approx(charged)

    def test_charge_is_ledger_only(self, line3, bound_router):
        # Identical locks with and without an upfront side must leave
        # identical balances and slots: the charge never moves coins.
        plain = bound_router(line3.copy())
        upfront = bound_router(line3.copy(), fee=self.policy())
        for bound in (plain, upfront):
            held = bound.router.lock(["a", "b", "c"], 2.0)
            assert bound.slots("a", "b") == 1
        assert (plain.state.balances == upfront.state.balances).all()
        assert plain.state.slots_used == upfront.state.slots_used
        assert held.upfront_total > 0

    def test_success_only_fee_charges_nothing(self, line3, bound_router):
        router = bound_router(line3, fee=ConstantFee(0.1)).router
        payment = router.lock(["a", "b", "c"], 2.0)
        assert payment.upfront_fees_per_node == {}
        assert payment.upfront_total == 0.0


class TestConcurrentUnwind:
    """Balance restoration when many concurrent payments fail."""

    def test_concurrent_inflight_then_fail_restores_all(
        self, line3, bound_router
    ):
        bound = bound_router(line3)
        router = bound.router
        balances = bound.state.balances.copy()
        payments = [router.lock(["a", "b", "c"], 3.0) for _ in range(10)]
        assert all(p.state is HtlcState.PENDING for p in payments)
        assert bound.slots("a", "b") == 10
        assert bound.slots("b", "c") == 10
        assert bound.balance("a", "b") == 100.0 - 30.0
        for payment in payments:
            router.fail(payment)
        assert bound.state.balances == pytest.approx(balances)
        assert bound.slots("a", "b") == 0
        assert bound.slots("b", "c") == 0
        assert router.locked_capital() == 0.0

    def test_interleaved_settle_fail_conserves_coins(self, line3, bound_router):
        bound = bound_router(line3)
        router = bound.router
        total = line3.total_capacity()
        held = [router.lock(["a", "b", "c"], 2.0) for _ in range(9)]
        # settle and fail in interleaved order, mimicking a mixed
        # honest/adversarial resolution pattern.
        for i, payment in enumerate(held):
            if i % 2 == 0:
                router.settle(payment)
            else:
                router.fail(payment)
        assert bound.write_back().total_capacity() == pytest.approx(total)
        assert router._in_flight == {}
        assert bound.state.slots_used == [0] * len(bound.state.slots_used)

    def test_partial_balance_contention_fails_cleanly(
        self, line3, bound_router
    ):
        # 100 coins per direction, 3.0 each: payment #34 must fail on
        # balance while 33 remain pending, and reserve nothing.
        bound = bound_router(line3)
        router = bound.router
        pending = []
        for _ in range(33):
            payment = router.lock(["a", "b", "c"], 3.0)
            assert payment.state is HtlcState.PENDING
            pending.append(payment)
        overflow = router.lock(["a", "b", "c"], 3.0)
        assert overflow.state is HtlcState.FAILED
        assert overflow.failure_reason == "no-balance"
        for payment in pending:
            router.fail(payment)
        assert bound.balance("a", "b") == pytest.approx(100.0)
