"""Unit tests for :mod:`repro.network.channel` (Figure 1 semantics)."""

import pytest

from repro.errors import InsufficientBalance, InvalidParameter
from repro.network.channel import Channel


class TestConstruction:
    def test_basic(self):
        channel = Channel("u", "v", 10.0, 7.0)
        assert channel.balance("u") == 10.0
        assert channel.balance("v") == 7.0
        assert channel.capacity == 17.0

    def test_default_counterparty_balance_zero(self):
        channel = Channel("u", "v", 4.0)
        assert channel.balance("v") == 0.0

    def test_rejects_self_channel(self):
        with pytest.raises(InvalidParameter):
            Channel("u", "u", 1.0, 1.0)

    def test_rejects_negative_balance(self):
        with pytest.raises(InvalidParameter):
            Channel("u", "v", -1.0, 1.0)

    def test_auto_channel_ids_unique(self):
        c1 = Channel("u", "v", 1.0)
        c2 = Channel("u", "v", 1.0)
        assert c1.channel_id != c2.channel_id

    def test_explicit_channel_id(self):
        channel = Channel("u", "v", 1.0, channel_id="my-chan")
        assert channel.channel_id == "my-chan"


class TestPaymentsFigure1:
    """Replays the balance updates of the paper's Figure 1."""

    def test_figure1_sequence(self):
        channel = Channel("u", "v", 10.0, 7.0)
        # payment of 10 from v to u? Figure 1: x=10 arrives at (10, 7);
        # then u pays 10? The figure shows u's balance dropping 10 -> 5
        # after a payment of 5 v<-u and others; we replay the *final*
        # documented step exactly: at b_u = 5, a payment of 6 u -> v fails.
        channel = Channel("u", "v", 5.0, 12.0)
        assert not channel.can_send("u", 6.0)
        with pytest.raises(InsufficientBalance):
            channel.send("u", 6.0)
        # balances unchanged on failure
        assert channel.balance("u") == 5.0
        assert channel.balance("v") == 12.0

    def test_send_updates_both_sides(self):
        channel = Channel("u", "v", 10.0, 7.0)
        channel.send("u", 5.0)
        assert channel.balance("u") == 5.0
        assert channel.balance("v") == 12.0

    def test_capacity_invariant_under_payments(self):
        channel = Channel("u", "v", 10.0, 7.0)
        for sender, amount in [("u", 3.0), ("v", 8.0), ("u", 1.5)]:
            channel.send(sender, amount)
        assert channel.capacity == pytest.approx(17.0)

    def test_exact_balance_payment_allowed(self):
        channel = Channel("u", "v", 5.0, 0.0)
        channel.send("u", 5.0)
        assert channel.balance("u") == 0.0
        assert channel.balance("v") == 5.0

    def test_rejects_negative_amount(self):
        channel = Channel("u", "v", 5.0, 0.0)
        with pytest.raises(InvalidParameter):
            channel.send("u", -1.0)

    def test_send_from_non_endpoint_rejected(self):
        channel = Channel("u", "v", 5.0, 0.0)
        with pytest.raises(InvalidParameter):
            channel.send("w", 1.0)


class TestHistoryAndViews:
    def test_other(self):
        channel = Channel("u", "v", 1.0)
        assert channel.other("u") == "v"
        assert channel.other("v") == "u"
