"""Property-based tests: payment-layer invariants under random workloads.

Failure injection: random payment sequences with arbitrary amounts (many
infeasible) must never corrupt conservation laws — total coins, per-node
net worth (modulo fees paid/earned), and HTLC atomicity. Instant payments
run through the simulation engine's event queue; HTLC locks go through an
HTLC-mode engine's router, bound to the engine's array state.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fees import ConstantFee, LinearFee
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcState
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.workload import Transaction

NODES = ["a", "b", "c", "d"]


def build_graph(balances) -> ChannelGraph:
    graph = ChannelGraph()
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    for (u, v), (bu, bv) in zip(edges, balances):
        graph.add_channel(u, v, bu, bv)
    return graph


def instant_engine(graph, payments, fee=None) -> BatchedSimulationEngine:
    """An instant-mode engine with ``payments`` queued at t = 1, 2, ..."""
    engine = BatchedSimulationEngine(graph, fee=fee)
    for i, (sender, receiver, amount) in enumerate(payments):
        engine.schedule(PaymentEvent(
            time=float(i + 1), sender=sender, receiver=receiver, amount=amount
        ))
    return engine


def htlc_engine(graph) -> BatchedSimulationEngine:
    """An HTLC-mode engine whose router is bound to its array state."""
    engine = BatchedSimulationEngine(graph, payment_mode="htlc")
    engine.run()
    return engine


def route(engine, sender, receiver, amount):
    """The engine's path over its current balances, or ``None``."""
    path = engine._find_path(sender, receiver, amount, -1)
    return None if isinstance(path, str) else path


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
        instant_engine(graph, payments).run()
        assert graph.total_capacity() == pytest.approx(total)

    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_fee_accounting_consistent(self, balances, payments):
        """Senders pay exactly what intermediaries collectively earn."""
        graph = build_graph(balances)
        metrics = instant_engine(graph, payments, fee=ConstantFee(0.05)).run()
        assert sum(metrics.fees_paid.values()) == pytest.approx(
            sum(metrics.revenue.values()), abs=1e-9
        )

    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_no_negative_balances_ever(self, balances, payments):
        graph = build_graph(balances)
        engine = instant_engine(graph, payments, fee=ConstantFee(0.1))
        for i in range(len(payments)):
            engine.run(until=float(i + 1))  # writes the balances back
            for channel in graph.channels:
                assert channel.balance(channel.u) >= -1e-9
                assert channel.balance(channel.v) >= -1e-9


class TestInstantRunHoldsNothing:
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 1000),
        trace=st.lists(
            st.tuples(
                st.integers(0, 11),
                st.integers(0, 11),
                st.floats(0.01, 20.0, allow_nan=False),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_hop_released(self, n, seed, trace):
        """After an instant run on a small BA graph no slot, no in-flight
        payment and no locked capital is left, and no coin is lost."""
        graph = barabasi_albert_snapshot(n, seed=seed, capacity_mu=1.0)
        capacities = [channel.capacity for channel in graph.channels]
        nodes = graph.nodes
        engine = BatchedSimulationEngine(
            graph, fee=LinearFee(0.01, 0.01), seed=seed
        )
        engine.schedule_transactions(
            Transaction(float(i), nodes[s % n], nodes[r % n], amount)
            for i, (s, r, amount) in enumerate(trace)
        )
        engine.run()
        ledger = engine.htlc_router
        assert engine._state.slots_used == [0] * len(engine._state.slots_used)
        assert ledger.in_flight == ()
        assert ledger.locked_capital() == 0.0
        for channel, capacity in zip(graph.channels, capacities):
            assert channel.capacity == pytest.approx(capacity, rel=1e-9)


class TestHtlcAtomicity:
    @given(balances=balances_strategy, payments=payments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_failed_locks_never_change_balances(self, balances, payments):
        engine = htlc_engine(build_graph(balances))
        router, balances_now = engine.htlc_router, engine._state.balances
        for sender, receiver, amount in payments:
            path = route(engine, sender, receiver, amount)
            if path is None:
                continue
            snapshot = balances_now.copy()
            payment = router.lock(path, amount)
            if payment.state is HtlcState.FAILED:
                assert (balances_now == snapshot).all()
            else:
                router.settle(payment)

    @given(balances=balances_strategy, payments=payments_strategy,
           fail_mask=st.lists(st.booleans(), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_lock_then_fail_is_identity(self, balances, payments, fail_mask):
        """Any payment that is locked and then failed leaves no trace."""
        graph = build_graph(balances)
        total = graph.total_capacity()
        engine = htlc_engine(graph)
        router = engine.htlc_router
        mask = list(fail_mask) + [True] * len(payments)
        for (sender, receiver, amount), should_fail in zip(payments, mask):
            path = route(engine, sender, receiver, amount)
            if path is None:
                continue
            payment = router.lock(path, amount)
            if payment.state is not HtlcState.PENDING:
                continue
            if should_fail:
                router.fail(payment)
            else:
                router.settle(payment)
        engine.run()  # writes the balances back
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
        engine = htlc_engine(graph)
        router = engine.htlc_router
        payment = router.lock(["a", "b", "c", "d", "a"], amount)
        if payment.state is HtlcState.PENDING:
            router.settle(payment)
            engine.run()  # writes the balances back
            for node in NODES:
                assert graph.balance_of(node) == pytest.approx(
                    worth[node], abs=1e-6
                )
