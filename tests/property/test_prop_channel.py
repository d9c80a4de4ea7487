"""Property-based tests: channel balance invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientBalance
from repro.network.channel import Channel

balances = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
amounts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(balance_u=balances, balance_v=balances, payments=st.lists(
    st.tuples(st.sampled_from(["u", "v"]), amounts), max_size=30,
))
@settings(max_examples=200)
def test_capacity_conserved_and_balances_nonnegative(
    balance_u, balance_v, payments
):
    """No sequence of payments changes capacity or drives balances < 0."""
    channel = Channel("u", "v", balance_u, balance_v, channel_id="c")
    capacity = channel.capacity
    for sender, amount in payments:
        try:
            channel.send(sender, amount)
        except InsufficientBalance:
            pass
    assert channel.balance("u") >= 0.0
    assert channel.balance("v") >= 0.0
    assert abs(channel.capacity - capacity) <= 1e-6 * max(capacity, 1.0)


@given(balance_u=balances, balance_v=balances, amount=amounts)
@settings(max_examples=200)
def test_send_is_exactly_reversible(balance_u, balance_v, amount):
    """A payment followed by the exact refund restores both balances."""
    channel = Channel("u", "v", balance_u, balance_v, channel_id="c")
    if not channel.can_send("u", amount):
        return
    channel.send("u", amount)
    channel.send("v", amount)
    assert channel.balance("u") == pytest_approx(balance_u)
    assert channel.balance("v") == pytest_approx(balance_v)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, abs=1e-6)


@given(balance_u=balances, amount=amounts)
@settings(max_examples=100)
def test_can_send_iff_send_succeeds(balance_u, amount):
    channel = Channel("u", "v", balance_u, 0.0, channel_id="c")
    can = channel.can_send("u", amount)
    try:
        channel.send("u", amount)
        sent = True
    except InsufficientBalance:
        sent = False
    assert can == sent
