"""Integration tests replaying the paper's two worked figures.

Figure 1 — channel balance semantics (also unit-tested in
``tests/network/test_channel.py``); here we replay the whole sequence
through the router.

Figure 2 — the joining example: E joins {A, B, C, D}; E sends 1 tx/month
to B, A sends 9 tx/month to D. With budget for two channels plus 19 spare
coins, the paper says E should open channels to A and D with sizes 10 and
9, maximising intermediary revenue and minimising E's own fees.
"""

from itertools import combinations

import pytest

from repro.core.strategy import Action, Strategy
from repro.core.utility import JoiningUserModel
from repro.network.channel import Channel
from repro.network.fees import ConstantFee
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.distributions import EmpiricalDistribution


class TestFigure1:
    """Channel between u (b_u = 10) and v (b_v = 7)."""

    def test_full_sequence(self):
        channel = Channel("u", "v", 10.0, 7.0, channel_id="c")
        # v pays u 10: wait — the figure shows (10,7) -> (5,12) -> (0,17)
        # via two u->v payments of 5, then a failed u->v payment of 6.
        channel.send("u", 5.0)
        assert (channel.balance("u"), channel.balance("v")) == (5.0, 12.0)
        channel.send("u", 5.0)
        assert (channel.balance("u"), channel.balance("v")) == (0.0, 17.0)
        assert not channel.can_send("u", 6.0)

    def test_documented_failure_point(self):
        """At b_u = 5, a payment of size 6 from u is unsuccessful."""
        channel = Channel("u", "v", 5.0, 12.0, channel_id="c")
        assert not channel.can_send("u", 6.0)
        assert channel.can_send("v", 6.0)  # the other direction is fine


@pytest.fixture
def figure2_world():
    """A-B-C-D path; E joins with monthly traffic E->B:1, A->D:9."""
    graph = ChannelGraph()
    for u, v in [("A", "B"), ("B", "C"), ("C", "D")]:
        graph.add_channel(u, v, 20.0, 20.0)
    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.001,
        fee_avg=1.0,       # revenue per forwarded tx
        fee_out_avg=1.0,   # fee per hop of E's own tx
        total_tx_rate=9.0,  # A -> D traffic
        user_tx_rate=1.0,   # E -> B traffic
        zipf_s=1.0,
    )
    distribution = EmpiricalDistribution(
        {"A": {"D": 1.0}, "B": {"A": 1.0}, "C": {"A": 1.0}, "D": {"A": 1.0}}
    )
    model = JoiningUserModel(
        graph,
        "E",
        params,
        distribution=distribution,
        own_probs={"B": 1.0},
        sender_rates={"A": 9.0, "B": 0.0, "C": 0.0, "D": 0.0},
    )
    return graph, params, model


class TestFigure2:
    def test_optimal_two_channel_peers_are_a_and_d(self, figure2_world):
        """Among all two-channel strategies, {A, D} maximises utility."""
        _graph, _params, model = figure2_world
        scores = {}
        for pair in combinations(["A", "B", "C", "D"], 2):
            strategy = Strategy([Action(p, 9.5) for p in pair])
            scores[pair] = model.utility(strategy)
        best = max(scores, key=scores.get)
        assert set(best) == {"A", "D"}

    def test_a_d_strategy_beats_single_channels(self, figure2_world):
        _graph, _params, model = figure2_world
        ad = model.utility(Strategy([Action("A", 10.0), Action("D", 9.0)]))
        for peer in ["A", "B", "C", "D"]:
            single = model.utility(Strategy([Action(peer, 19.0)]))
            assert ad > single

    def test_revenue_comes_from_a_d_transit(self, figure2_world):
        _graph, _params, model = figure2_world
        strategy = Strategy([Action("A", 10.0), Action("D", 9.0)])
        # A-E-D (2 hops) beats A-B-C-D (3 hops): E carries all 9 tx/month
        assert model.expected_revenue(strategy) == pytest.approx(9.0)

    def test_funding_10_9_supports_the_monthly_flow(self, figure2_world):
        """Simulate the month: with 10 on E-A and 9 on E-D every payment
        succeeds; E's D-side funds deplete exactly to zero."""
        graph, _params, model = figure2_world
        sim_graph = model.with_strategy(
            Strategy([Action("A", 10.0), Action("D", 9.0)])
        )
        engine = BatchedSimulationEngine(sim_graph, fee=ConstantFee(0.0))
        # E's own payment to B, then A's 9 unit payments to D
        engine.schedule(PaymentEvent(time=0.5, sender="E", receiver="B", amount=1.0))
        for i in range(9):
            engine.schedule(
                PaymentEvent(time=1.0 + i, sender="A", receiver="D", amount=1.0)
            )
        metrics = engine.run()
        assert metrics.succeeded == 10
        assert metrics.failed == 0
        ed = sim_graph.channels_between("E", "D")[0]
        assert ed.balance("E") == pytest.approx(0.0)

    def test_underfunding_the_d_channel_fails_late_payments(self, figure2_world):
        graph, _params, model = figure2_world
        sim_graph = model.with_strategy(
            Strategy([Action("A", 10.0), Action("D", 5.0)])
        )
        # D side matches E's lock (dual funding) but E's outbound capacity
        # toward D is only 5, and the alternative route B-C-D is capped too.
        engine = BatchedSimulationEngine(sim_graph, fee=ConstantFee(0.0))
        for i in range(9):
            engine.schedule(
                PaymentEvent(time=1.0 + i, sender="A", receiver="D", amount=3.0)
            )
        metrics = engine.run()
        assert metrics.failed > 0
