"""Property-based tests: the joining-user model against a free-function oracle.

:class:`~repro.core.utility.JoiningUserModel` scores a strategy in closed
form from base-graph tables. The oracle builds the augmented graph with
``model.with_strategy(S)``, freezes its reduced directed view and runs the
free functions :func:`~repro.core.revenue.expected_revenue` (Brandes) and
:func:`~repro.core.fees_paid.expected_fees` (BFS) on it. On graphs of six
nodes or fewer the revenue is also checked against explicit shortest-path
enumeration.

The random instances include disconnected base graphs, channel sides below
``routing_amount`` (one-directional links, for base channels and the
user's own), parallel actions to one peer, ``locked=0`` and the empty
strategy, under both hop conventions.

The batch kernel :meth:`~repro.core.utility.JoiningUserModel.objectives`
is checked on drawn strategy lists (with the empty strategy, a duplicate
and ``-inf`` scores) under all three objectives: it equals the scalar
calls bit for bit and leaves the same ``stats``, whatever the chunk
size, and agrees with the free-function oracle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fees_paid import HOP_CONVENTIONS, expected_fees
from repro.core.revenue import expected_revenue
from repro.core.strategy import Action, Strategy
from repro.core import utility
from repro.core.utility import OBJECTIVE_KINDS, JoiningUserModel
from repro.network.betweenness import pair_weighted_betweenness_exact
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters

AMOUNTS = (0.0, 0.5, 1.0, 2.0)


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    graph = ChannelGraph()
    for node in range(n):
        graph.add_node(node)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    channels = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    for u, v in channels:
        graph.add_channel(
            u, v, draw(st.sampled_from(AMOUNTS)), draw(st.sampled_from(AMOUNTS))
        )
    params = ModelParameters(
        total_tx_rate=draw(st.floats(1.0, 100.0)),
        zipf_s=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    model = JoiningUserModel(
        graph,
        "u",
        params,
        hop_convention=draw(st.sampled_from(HOP_CONVENTIONS)),
        peer_deposit=draw(st.sampled_from(["match", 0.0, 1.0])),
        routing_amount=draw(st.sampled_from([0.0, 1.0])),
    )
    return model


def strategies_on(model):
    """Strategies over ``model``'s base nodes: parallel actions to one
    peer, ``locked=0`` and the empty strategy included."""
    n = len(model.base_graph)
    actions = st.lists(
        st.builds(
            Action,
            st.integers(min_value=0, max_value=n - 1),
            st.sampled_from(AMOUNTS),
        ),
        max_size=6,
    )
    return actions.map(Strategy)


@st.composite
def instances(draw):
    model = draw(models())
    return model, draw(strategies_on(model))


@st.composite
def batches(draw):
    """A model and a list of strategies holding the empty strategy and a
    duplicate; unreachable receivers make some of them score ``-inf``."""
    model = draw(models())
    strategies = draw(st.lists(strategies_on(model), min_size=1, max_size=12))
    strategies += [Strategy(), strategies[0]]
    order = draw(st.permutations(range(len(strategies))))
    return model, [strategies[i] for i in order]


def oracle_weight(model):
    rates = model.sender_rates

    def weight(sender, receiver):
        rate = rates.get(sender, 0.0)
        if rate <= 0.0 or receiver == model.new_user:
            return 0.0
        return rate * model.distribution.probability(sender, receiver)

    return weight


def fresh(model):
    """A new model with ``model``'s settings: empty stats and tables."""
    return JoiningUserModel(
        model.base_graph,
        model.new_user,
        model.params,
        hop_convention=model.hop_convention,
        peer_deposit=model.peer_deposit,
        routing_amount=model.routing_amount,
    )


def augmented_view(model, strategy):
    graph = model.with_strategy(strategy)
    return graph.view(directed=True, reduced=model.routing_amount)


@given(instance=instances())
@settings(max_examples=300, deadline=None)
def test_model_matches_free_function_oracle(instance):
    model, strategy = instance
    view = augmented_view(model, strategy)
    params = model.params
    revenue = expected_revenue(
        view, model.new_user, oracle_weight(model), params.fee_avg
    )
    fees = expected_fees(
        view,
        model.new_user,
        model.own_probs,
        params.user_tx_rate,
        params.fee_out_avg,
        hop_convention=model.hop_convention,
    )
    assert model.expected_revenue(strategy) == pytest.approx(revenue, rel=1e-12)
    assert model.expected_fees(strategy) == fees
    assert (model.utility(strategy) == -math.inf) == math.isinf(fees)
    if len(view) <= 7:  # six base nodes plus the joining user
        exact = pair_weighted_betweenness_exact(view, oracle_weight(model))
        assert model.expected_revenue(strategy) == pytest.approx(
            params.fee_avg * exact.node_value(model.new_user), rel=1e-12
        )


@given(instance=instances())
@settings(max_examples=50, deadline=None)
def test_evaluation_order_does_not_matter(instance):
    model, strategy = instance
    unused = fresh(model)
    model.objective(Strategy())
    model.objective(Strategy([Action(0, 1.0)]))
    assert model.expected_fees(strategy) == unused.expected_fees(strategy)
    assert model.expected_revenue(strategy) == unused.expected_revenue(strategy)


@given(batch=batches(), kind=st.sampled_from(OBJECTIVE_KINDS))
@settings(max_examples=200, deadline=None)
def test_batch_kernel_matches_scalar_calls(batch, kind):
    model, strategies = batch
    scalar = fresh(model)
    expected = [scalar.objective(strategy, kind) for strategy in strategies]
    assert model.objectives(strategies, kind) == expected
    assert model.stats == scalar.stats


@given(batch=batches(), kind=st.sampled_from(OBJECTIVE_KINDS))
@settings(max_examples=100, deadline=None)
def test_batch_kernel_chunking_does_not_matter(batch, kind):
    model, strategies = batch
    expected = model.objectives(strategies, kind)
    # One strategy per chunk, then chunks of 1 to 100 strategies (n <= 9).
    for cells in (1, 100):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(utility, "BATCH_CELLS", cells)
            chunked = fresh(model)
            assert chunked.objectives(strategies, kind) == expected
        assert chunked.stats == model.stats


@given(batch=batches())
@settings(max_examples=100, deadline=None)
def test_batch_kernel_matches_free_function_oracle(batch):
    model, strategies = batch
    params = model.params
    for strategy, value in zip(strategies, model.objectives(strategies)):
        view = augmented_view(model, strategy)
        fees = expected_fees(
            view,
            model.new_user,
            model.own_probs,
            params.user_tx_rate,
            params.fee_out_avg,
            hop_convention=model.hop_convention,
        )
        if math.isinf(fees):
            assert value == -math.inf
            continue
        revenue = expected_revenue(
            view, model.new_user, oracle_weight(model), params.fee_avg
        )
        assert value == pytest.approx(revenue - fees, rel=1e-12, abs=1e-12)
