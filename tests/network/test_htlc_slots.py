"""HTLC slot caps (``max_accepted_htlcs``) and concurrent unwind paths.

Covers the jamming substrate: per-direction slot exhaustion raises a clear
:class:`HtlcError`, the router degrades it into a failed lock with a
``"no-slots"`` reason, and timeout/cancel restores balances *and* slots
exactly — including with many concurrent in-flight payments contending on
the same channel (the unwind path a jamming attack exercises).
"""

import pytest

from repro.errors import HtlcError as ErrorsHtlcError
from repro.errors import InvalidParameter
from repro.network.channel import DEFAULT_MAX_ACCEPTED_HTLCS, Channel
from repro.network.fees import ConstantFee, FeePolicy
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcError, HtlcRouter, HtlcState


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
        # HtlcError moved to repro.errors so Channel can raise it; the
        # legacy import path must stay the same class.
        assert HtlcError is ErrorsHtlcError

    def test_open_close_tracks_per_direction(self):
        channel = Channel("u", "v", 5.0, 5.0, max_accepted_htlcs=2)
        channel.open_htlc("u")
        channel.open_htlc("u")
        assert channel.htlc_slots_used("u") == 2
        assert channel.htlc_slots_used("v") == 0
        assert not channel.has_free_htlc_slot("u")
        assert channel.has_free_htlc_slot("v")
        channel.close_htlc("u")
        assert channel.has_free_htlc_slot("u")

    def test_exhaustion_raises_clear_htlc_error(self):
        channel = Channel("u", "v", 5.0, 5.0, max_accepted_htlcs=1)
        channel.open_htlc("u")
        with pytest.raises(HtlcError, match="no free HTLC slot"):
            channel.open_htlc("u")

    def test_close_without_open_raises(self):
        channel = Channel("u", "v", 5.0, 5.0)
        with pytest.raises(HtlcError, match="no open HTLC"):
            channel.close_htlc("u")

    def test_unlimited_cap(self):
        channel = Channel("u", "v", 5.0, 5.0, max_accepted_htlcs=None)
        for _ in range(1000):
            channel.open_htlc("u")
        assert channel.has_free_htlc_slot("u")

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
    def test_lock_fails_with_no_slots_reason(self, line3):
        for channel in line3.channels:
            channel.max_accepted_htlcs = 2
        router = HtlcRouter(line3)
        held = [router.lock(["a", "b", "c"], 1.0) for _ in range(2)]
        assert all(p.state is HtlcState.PENDING for p in held)
        rejected = router.lock(["a", "b", "c"], 1.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-slots"

    def test_no_balance_reason_distinct(self, line3):
        router = HtlcRouter(line3)
        rejected = router.lock(["a", "b", "c"], 1000.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-balance"

    def test_slots_free_again_after_settle_and_fail(self, line3):
        for channel in line3.channels:
            channel.max_accepted_htlcs = 1
        router = HtlcRouter(line3)
        p1 = router.lock(["a", "b", "c"], 1.0)
        assert router.lock(["a", "b", "c"], 1.0).state is HtlcState.FAILED
        router.settle(p1)
        p2 = router.lock(["a", "b", "c"], 1.0)
        assert p2.state is HtlcState.PENDING
        router.fail(p2)
        assert router.lock(["a", "b", "c"], 1.0).state is HtlcState.PENDING

    def test_mid_path_slot_failure_releases_earlier_hops(self, line3):
        # Jam only the second hop: the first hop's reservation (balance
        # AND slot) must unwind when the lock aborts mid-path.
        bc = line3.channels_between("b", "c")[0]
        bc.max_accepted_htlcs = 1
        bc.open_htlc("b")
        ab = line3.channels_between("a", "b")[0]
        router = HtlcRouter(line3)
        before = ab.balance("a")
        rejected = router.lock(["a", "b", "c"], 2.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-slots"
        assert ab.balance("a") == before
        assert ab.htlc_slots_used("a") == 0


class TestUpfrontCharges:
    """The per-attempt side of a two-sided FeePolicy at the lock layer.

    The unjamming countermeasure: every hop a lock actually places pays
    ``policy.upfront(hop_amount)`` to its receiver — settle or fail,
    the charge stands (and unwinding never refunds it). The
    charge is ledger-only: channel balances, slots, and routing are
    identical with or without it.
    """

    def policy_router(self, graph, upfront_rate=0.1, upfront_base=0.5):
        return HtlcRouter(graph, fee=FeePolicy(
            success=ConstantFee(0.0),
            upfront_base=upfront_base,
            upfront_rate=upfront_rate,
        ))

    def test_pending_lock_charges_every_placed_hop(self, line3):
        router = self.policy_router(line3)
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

    def test_mid_path_failure_still_charges_placed_hops(self, line3):
        # Jam the second hop's slots: the a->b hop is placed (and pays),
        # the b->c hop never places (and doesn't).
        bc = line3.channels_between("b", "c")[0]
        bc.max_accepted_htlcs = 1
        bc.open_htlc("b")
        router = self.policy_router(line3)
        rejected = router.lock(["a", "b", "c"], 2.0)
        assert rejected.state is HtlcState.FAILED
        assert rejected.failure_reason == "no-slots"
        assert set(rejected.upfront_fees_per_node) == {"b"}
        assert rejected.upfront_total == pytest.approx(0.5 + 0.1 * 2.0)

    def test_fail_never_refunds(self, line3):
        router = self.policy_router(line3, upfront_base=0.0)
        failed = router.lock(["a", "b", "c"], 3.0)
        charged = failed.upfront_total
        router.fail(failed)
        assert failed.upfront_total == charged
        again = router.lock(["a", "b", "c"], 3.0)
        router.fail(again)
        assert again.upfront_total == pytest.approx(charged)

    def test_charge_is_ledger_only(self, line3):
        # Identical locks with and without an upfront side must leave
        # identical balances and slots: the charge never moves coins.
        plain = HtlcRouter(line3)
        p1 = plain.lock(["a", "b", "c"], 2.0)
        plain.fail(p1)
        before = {
            (c.u, c.v, n): c.balance(n)
            for c in line3.channels for n in c.endpoints
        }
        upfront = self.policy_router(line3)
        p2 = upfront.lock(["a", "b", "c"], 2.0)
        upfront.fail(p2)
        after = {
            (c.u, c.v, n): c.balance(n)
            for c in line3.channels for n in c.endpoints
        }
        assert before == after
        assert p2.upfront_total > 0

    def test_success_only_fee_charges_nothing(self, line3):
        router = HtlcRouter(line3, fee=ConstantFee(0.1))
        payment = router.lock(["a", "b", "c"], 2.0)
        assert payment.upfront_fees_per_node == {}
        assert payment.upfront_total == 0.0


class TestConcurrentUnwind:
    """Balance restoration when many concurrent payments fail."""

    def test_concurrent_inflight_then_fail_restores_all(self, line3):
        router = HtlcRouter(line3)
        ab = line3.channels_between("a", "b")[0]
        bc = line3.channels_between("b", "c")[0]
        balances = {
            (c, node): c.balance(node)
            for c in line3.channels for node in c.endpoints
        }
        payments = [router.lock(["a", "b", "c"], 3.0) for _ in range(10)]
        assert all(p.state is HtlcState.PENDING for p in payments)
        assert ab.htlc_slots_used("a") == 10
        assert bc.htlc_slots_used("b") == 10
        assert ab.balance("a") == balances[(ab, "a")] - 30.0
        for payment in payments:
            router.fail(payment)
        for (channel, node), value in balances.items():
            assert channel.balance(node) == pytest.approx(value)
        assert ab.htlc_slots_used("a") == 0
        assert bc.htlc_slots_used("b") == 0
        assert router.locked_capital() == 0.0

    def test_interleaved_settle_fail_conserves_coins(self, line3):
        router = HtlcRouter(line3)
        total = line3.total_capacity()
        held = [router.lock(["a", "b", "c"], 2.0) for _ in range(9)]
        # settle and fail in interleaved order, mimicking a mixed
        # honest/adversarial resolution pattern.
        for i, payment in enumerate(held):
            if i % 2 == 0:
                router.settle(payment)
            else:
                router.fail(payment)
        assert line3.total_capacity() == pytest.approx(total)
        assert router.in_flight == ()
        for channel in line3.channels:
            for node in channel.endpoints:
                assert channel.htlc_slots_used(node) == 0

    def test_partial_balance_contention_fails_cleanly(self, line3):
        # 100 coins per direction, 3.0 each: payment #34 must fail on
        # balance while 33 remain pending; its partial reservations unwind.
        router = HtlcRouter(line3)
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
        ab = line3.channels_between("a", "b")[0]
        assert ab.balance("a") == pytest.approx(100.0)
