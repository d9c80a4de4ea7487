"""Tests for the simulator's HTLC payment mode (in-flight contention)."""

import pytest

from repro.errors import SimulationError
from repro.network.fees import ConstantFee
from repro.network.graph import ChannelGraph
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.distributions import UniformDistribution
from repro.transactions.workload import PoissonWorkload


@pytest.fixture
def line3_graph() -> ChannelGraph:
    return ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=10.0)


class TestHtlcMode:
    def test_single_payment_settles(self, line3_graph):
        engine = BatchedSimulationEngine(line3_graph, payment_mode="htlc", seed=1)
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=4.0)
        )
        metrics = engine.run()
        assert metrics.succeeded == 1
        assert metrics.pending == 0
        assert metrics.htlc_locked_peak >= 8.0  # two hops of 4

    def test_balances_settle_correctly(self, line3_graph):
        total = line3_graph.total_capacity()
        engine = BatchedSimulationEngine(line3_graph, payment_mode="htlc", seed=1)
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=4.0)
        )
        engine.run()
        assert line3_graph.total_capacity() == pytest.approx(total)
        bc = line3_graph.channels_between("b", "c")[0]
        assert bc.balance("c") == pytest.approx(14.0)

    def test_contention_fails_second_payment(self, line3_graph):
        """Two overlapping payments exceed in-flight capacity: one fails."""
        engine = BatchedSimulationEngine(
            line3_graph, payment_mode="htlc", seed=1, htlc_hold_mean=100.0
        )
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=7.0)
        )
        engine.schedule(
            PaymentEvent(time=1.001, sender="a", receiver="c", amount=7.0)
        )
        metrics = engine.run()
        assert metrics.failed == 1
        reasons = dict(metrics.failure_reasons)
        assert (
            reasons.get("lock-contention", 0)
            + reasons.get("no-capacity-path", 0)
            == 1
        )

    def test_instant_mode_would_succeed_sequentially(self, line3_graph):
        """The same two payments succeed when applied instantly in order
        (the second direction refills)... here same direction, so the
        second fails in instant mode too unless balances refill — use
        opposite directions to show the contrast."""
        engine = BatchedSimulationEngine(line3_graph, payment_mode="instant")
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=7.0)
        )
        engine.schedule(
            PaymentEvent(time=2.0, sender="c", receiver="a", amount=7.0)
        )
        metrics = engine.run()
        assert metrics.succeeded == 2

    def test_fees_accrue_on_settle(self, line3_graph):
        engine = BatchedSimulationEngine(
            line3_graph, payment_mode="htlc", fee=ConstantFee(0.5), seed=2
        )
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=1.0)
        )
        metrics = engine.run()
        assert metrics.revenue["b"] == pytest.approx(0.5)
        assert metrics.fees_paid["a"] == pytest.approx(0.5)

    def test_run_until_leaves_pending(self, line3_graph):
        engine = BatchedSimulationEngine(
            line3_graph, payment_mode="htlc", seed=3, htlc_hold_mean=50.0
        )
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=1.0)
        )
        metrics = engine.run(until=1.5)
        assert metrics.pending in (0, 1)  # hold is random; usually pending
        # draining the queue resolves everything
        final = engine.run()
        assert final.pending == 0

    def test_workload_statistics(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        workload = PoissonWorkload(
            dist, {n: 1.0 for n in line3_graph.nodes}, seed=5
        )
        engine = BatchedSimulationEngine(
            line3_graph, payment_mode="htlc", seed=5, htlc_hold_mean=0.01
        )
        engine.schedule_workload(workload, horizon=60.0)
        metrics = engine.run()
        assert metrics.pending == 0
        assert metrics.success_rate > 0.8  # short holds, ample capacity

    def test_invalid_mode_rejected(self, line3_graph):
        with pytest.raises(SimulationError):
            BatchedSimulationEngine(line3_graph, payment_mode="teleport")

    def test_invalid_hold_rejected(self, line3_graph):
        with pytest.raises(SimulationError):
            BatchedSimulationEngine(
                line3_graph, payment_mode="htlc", htlc_hold_mean=0.0
            )

    def test_longer_holds_hurt_throughput(self):
        """More in-flight time => more contention => lower success rate."""
        def run(hold: float) -> float:
            graph = ChannelGraph.from_edges(
                [("a", "b"), ("b", "c"), ("c", "d")], balance=3.0
            )
            dist = UniformDistribution.from_graph(graph)
            workload = PoissonWorkload(
                dist, {n: 2.0 for n in graph.nodes}, seed=9
            )
            engine = BatchedSimulationEngine(
                graph, payment_mode="htlc", seed=9, htlc_hold_mean=hold
            )
            engine.schedule_workload(workload, horizon=40.0)
            metrics = engine.run()
            resolved = metrics.succeeded + metrics.failed
            return metrics.succeeded / resolved if resolved else 0.0

        assert run(5.0) < run(0.01)


class TestSlotExhaustion:
    """Per-direction HTLC slot caps under queued payments."""

    def test_tight_cap_produces_no_slots_failures(self):
        # Cap of 2 per direction, long holds: most payments through the
        # hub fail on slots.
        graph = ChannelGraph()
        for i in range(5):
            graph.add_channel("hub", f"leaf{i}", 50.0, 50.0, max_accepted_htlcs=2)
        engine = BatchedSimulationEngine(
            graph, seed=7, payment_mode="htlc", htlc_hold_mean=100.0
        )
        for i in range(40):
            engine.schedule(PaymentEvent(
                time=0.1 * (i + 1), sender=f"leaf{i % 5}",
                receiver=f"leaf{(i + 1) % 5}", amount=1.0,
            ))
        metrics = engine.run()
        assert metrics.attempted == 40
        assert metrics.failure_reasons["no-htlc-slots"] > 0

    def test_default_483_cap_reached_and_enforced(self):
        # One channel, ample balance: payment 484 while 483 are still in
        # flight fails on slots — the Lightning cap.
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10_000.0, 10_000.0)
        engine = BatchedSimulationEngine(
            graph, seed=7, payment_mode="htlc", htlc_hold_mean=1000.0
        )
        for i in range(500):
            engine.schedule(PaymentEvent(
                time=0.001 * (i + 1), sender="a", receiver="b", amount=1.0,
            ))
        metrics = engine.run()
        assert metrics.failure_reasons["no-htlc-slots"] == 500 - 483
        assert metrics.htlc_locked_peak == pytest.approx(483.0)
