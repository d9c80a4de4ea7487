"""Property-based parity of the two HTLC routers.

:class:`~repro.network.htlc.HtlcRouter` reserves hops on channel objects;
the batched engine's ``_ArrayHtlcRouter`` reserves them on CSR entries of
frozen array state. Driven through the same random lock / settle / fail
sequence on copies of one simple graph, they must agree after every step
— payment state, failure reason, success and upfront fees and
``locked_capital()`` — and end on the same channel balances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fees import FeePolicy, LinearFee
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcRouter, HtlcState
from repro.simulation.fastpath import BatchedSimulationEngine

#: A 4-cycle with one chord: paths of one to three hops, some of them
#: over node pairs that share no channel.
EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
NODES = ["a", "b", "c", "d"]

SUCCESS = LinearFee(0.01, 0.001)
POLICIES = {
    "success-only": SUCCESS,
    "upfront": FeePolicy(success=SUCCESS, upfront_base=0.002, upfront_rate=0.0005),
}

paths = st.lists(st.sampled_from(NODES), min_size=2, max_size=4, unique=True)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("lock"), paths, st.floats(0.1, 12.0)),
        st.tuples(st.sampled_from(["settle", "fail"]), st.integers(0, 20)),
    ),
    max_size=30,
)


def build_graph(balances, slot_cap):
    graph = ChannelGraph()
    for (u, v), (bu, bv) in zip(EDGES, balances):
        graph.add_channel(u, v, bu, bv, max_accepted_htlcs=slot_cap)
    return graph


def balances_of(graph):
    return {
        (channel.u, channel.v, node): channel.balance(node)
        for channel in graph.channels for node in channel.endpoints
    }


def view_of(payment):
    return (
        payment.state,
        payment.failure_reason,
        payment.fees_per_node,
        payment.upfront_fees_per_node,
    )


@settings(max_examples=60, deadline=None)
@given(
    balances=st.lists(
        st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
        min_size=len(EDGES), max_size=len(EDGES),
    ),
    slot_cap=st.integers(1, 3),
    policy=st.sampled_from(sorted(POLICIES)),
    sequence=steps,
)
def test_routers_agree_step_by_step(balances, slot_cap, policy, sequence):
    fee = POLICIES[policy]
    event_graph = build_graph(balances, slot_cap)
    array_graph = build_graph(balances, slot_cap)
    event_router = HtlcRouter(event_graph, fee=fee)
    engine = BatchedSimulationEngine(array_graph, fee=fee, payment_mode="htlc")
    engine.run()  # freezes the array state and binds the router to it
    array_router = engine.htlc_router
    pending = []
    for step in sequence:
        if step[0] == "lock":
            _, path, amount = step
            pair = (event_router.lock(path, amount), array_router.lock(path, amount))
            if pair[0].state is HtlcState.PENDING:
                pending.append(pair)
        elif pending:
            pair = pending.pop(step[1] % len(pending))
            for router, payment in zip((event_router, array_router), pair):
                getattr(router, step[0])(payment)
        else:
            continue
        assert view_of(pair[0]) == view_of(pair[1])
        assert event_router.locked_capital() == array_router.locked_capital()
    # Pending escrow stays out of both sides on both backends.
    engine.run()  # writes the array balances back to the channels
    assert balances_of(event_graph) == balances_of(array_graph)
