"""Property-based tests: payment-layer invariants under random workloads.

Failure injection: random payment sequences with arbitrary amounts (many
infeasible) must never corrupt conservation laws — total coins, per-node
net worth (modulo fees paid/earned), and HTLC atomicity.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fees import ConstantFee
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcRouter, HtlcState
from repro.network.routing import Router
from repro.errors import RoutingError

NODES = ["a", "b", "c", "d"]


def build_graph(balances) -> ChannelGraph:
    graph = ChannelGraph()
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    for (u, v), (bu, bv) in zip(edges, balances):
        graph.add_channel(u, v, bu, bv)
    return graph


balances_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    min_size=4,
    max_size=4,
)
payments_strategy = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.floats(0.01, 30.0, allow_nan=False),
    ),
    max_size=25,
)


class TestInstantRouting:
    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=100, deadline=None)
    def test_total_coins_conserved_zero_fee(self, balances, payments):
        graph = build_graph(balances)
        total = graph.total_capacity()
        router = Router(graph)
        for sender, receiver, amount in payments:
            if sender == receiver:
                continue
            router.execute(sender, receiver, amount)
        assert graph.total_capacity() == pytest.approx(total)

    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_fee_accounting_consistent(self, balances, payments):
        """Sender pays exactly what intermediaries collectively earn."""
        graph = build_graph(balances)
        router = Router(graph, fee=ConstantFee(0.05))
        for sender, receiver, amount in payments:
            if sender == receiver:
                continue
            outcome = router.execute(sender, receiver, amount)
            if outcome.success:
                assert sum(outcome.fees_per_node.values()) == pytest.approx(
                    outcome.route.fee, abs=1e-9
                )

    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_no_negative_balances_ever(self, balances, payments):
        graph = build_graph(balances)
        router = Router(graph, fee=ConstantFee(0.1))
        for sender, receiver, amount in payments:
            if sender == receiver:
                continue
            router.execute(sender, receiver, amount)
            for channel in graph.channels:
                assert channel.balance(channel.u) >= -1e-9
                assert channel.balance(channel.v) >= -1e-9


class TestHtlcAtomicity:
    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_failed_locks_never_change_balances(self, balances, payments):
        graph = build_graph(balances)
        router = HtlcRouter(graph)
        routing = Router(graph)
        for sender, receiver, amount in payments:
            if sender == receiver:
                continue
            snapshot = {
                c.channel_id: (c.balance(c.u), c.balance(c.v))
                for c in graph.channels
            }
            try:
                route = routing.find_route(sender, receiver, amount)
            except RoutingError:
                continue
            payment = router.lock(route.nodes, amount)
            if payment.state is HtlcState.FAILED:
                after = {
                    c.channel_id: (c.balance(c.u), c.balance(c.v))
                    for c in graph.channels
                }
                assert snapshot == after
            else:
                router.settle(payment)

    @given(balances=balances_strategy, payments=payments_strategy,
           fail_mask=st.lists(st.booleans(), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_lock_then_fail_is_identity(self, balances, payments, fail_mask):
        """Any payment that is locked and then failed leaves no trace."""
        graph = build_graph(balances)
        total = graph.total_capacity()
        router = HtlcRouter(graph)
        routing = Router(graph)
        mask = list(fail_mask) + [True] * len(payments)
        for (sender, receiver, amount), should_fail in zip(payments, mask):
            if sender == receiver:
                continue
            try:
                route = routing.find_route(sender, receiver, amount)
            except RoutingError:
                continue
            payment = router.lock(route.nodes, amount)
            if payment.state is not HtlcState.PENDING:
                continue
            if should_fail:
                router.fail(payment)
            else:
                router.settle(payment)
        assert graph.total_capacity() == pytest.approx(total)
        for channel in graph.channels:
            assert channel.balance(channel.u) >= -1e-9


class TestCircularPayment:
    @given(balances=balances_strategy,
           amount=st.floats(0.1, 10.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_preserves_net_worth_of_everyone(self, balances, amount):
        """A fee-free self-payment around the ring only shifts liquidity."""
        graph = build_graph(balances)
        worth = {node: graph.balance_of(node) for node in NODES}
        router = HtlcRouter(graph)
        payment = router.lock(["a", "b", "c", "d", "a"], amount)
        if payment.state is HtlcState.PENDING:
            router.settle(payment)
            for node in NODES:
                assert graph.balance_of(node) == pytest.approx(
                    worth[node], abs=1e-6
                )
