"""Unit and statistical tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.network.fees import ConstantFee
from repro.network.graph import ChannelGraph
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.distributions import (
    EmpiricalDistribution,
    UniformDistribution,
)
from repro.transactions.workload import PoissonWorkload, Transaction


@pytest.fixture
def line3_graph() -> ChannelGraph:
    return ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=100.0)


class TestConstruction:
    def test_base_class_cannot_be_constructed(self, line3_graph):
        with pytest.raises(SimulationError, match="BatchedSimulationEngine"):
            SimulationEngine(line3_graph)

    def test_unknown_path_selection_rejected(self, line3_graph):
        with pytest.raises(SimulationError, match="path_selection"):
            BatchedSimulationEngine(line3_graph, path_selection="widest")


class TestPaymentProcessing:
    def test_single_payment(self, line3_graph):
        engine = BatchedSimulationEngine(line3_graph)
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=5.0)
        )
        metrics = engine.run()
        assert metrics.attempted == 1
        assert metrics.succeeded == 1
        assert metrics.volume_delivered == 5.0
        assert metrics.sent["a"] == 1
        assert metrics.received["c"] == 1

    def test_intermediary_earns_fee(self, line3_graph):
        engine = BatchedSimulationEngine(line3_graph, fee=ConstantFee(0.5))
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=1.0)
        )
        metrics = engine.run()
        assert metrics.revenue["b"] == pytest.approx(0.5)
        assert metrics.fees_paid["a"] == pytest.approx(0.5)

    def test_failure_counted_and_classified(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=1.0)
        engine = BatchedSimulationEngine(graph)
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="b", amount=100.0)
        )
        metrics = engine.run()
        assert metrics.failed == 1
        assert metrics.failure_reasons["no-capacity-path"] == 1

    def test_edge_traffic_recorded(self, line3_graph):
        engine = BatchedSimulationEngine(line3_graph)
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=1.0)
        )
        metrics = engine.run()
        assert metrics.edge_traffic[("a", "b")] == 1
        assert metrics.edge_traffic[("b", "c")] == 1

    def test_run_until_leaves_later_events_queued(self, line3_graph):
        engine = BatchedSimulationEngine(line3_graph)
        engine.schedule(PaymentEvent(time=1.0, sender="a", receiver="b", amount=1.0))
        engine.schedule(PaymentEvent(time=9.0, sender="a", receiver="b", amount=1.0))
        metrics = engine.run(until=5.0)
        assert metrics.attempted == 1
        assert metrics.horizon == 5.0

    def test_balance_conservation(self, line3_graph):
        total_before = line3_graph.total_capacity()
        engine = BatchedSimulationEngine(line3_graph, fee=ConstantFee(0.1))
        for i in range(20):
            engine.schedule(
                PaymentEvent(
                    time=float(i + 1),
                    sender=["a", "c"][i % 2],
                    receiver=["c", "a"][i % 2],
                    amount=2.0,
                )
            )
        engine.run()
        assert line3_graph.total_capacity() == pytest.approx(total_before)


class TestWorkloadIntegration:
    def test_schedule_workload_counts(self, line3_graph):
        dist = UniformDistribution.from_graph(line3_graph)
        workload = PoissonWorkload(
            dist, {n: 1.0 for n in line3_graph.nodes}, seed=0
        )
        engine = BatchedSimulationEngine(line3_graph)
        scheduled = engine.schedule_workload(workload, horizon=50.0)
        metrics = engine.run()
        assert metrics.attempted == scheduled
        assert metrics.horizon == pytest.approx(
            metrics.horizon
        )

    def test_schedule_transactions_trace(self, line3_graph):
        trace = [
            Transaction(time=1.0, sender="a", receiver="c", amount=1.0),
            Transaction(time=2.0, sender="c", receiver="a", amount=1.0),
        ]
        engine = BatchedSimulationEngine(line3_graph)
        assert engine.schedule_transactions(trace) == 2
        metrics = engine.run()
        assert metrics.succeeded == 2

    def test_revenue_rate_definition(self, line3_graph):
        engine = BatchedSimulationEngine(line3_graph, fee=ConstantFee(1.0))
        engine.schedule(
            PaymentEvent(time=1.0, sender="a", receiver="c", amount=1.0)
        )
        metrics = engine.run(until=10.0)
        assert metrics.revenue_rate("b") == pytest.approx(0.1)
        assert metrics.edge_rate("a", "b") == pytest.approx(0.1)

    def test_empirical_matches_predicted_intermediary_rate(self):
        """Long-run simulated revenue rate ≈ analytic E_rev (E11 in small)."""
        graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=1e9)
        dist = EmpiricalDistribution(
            {"a": {"c": 1.0}, "c": {"a": 1.0}}
        )
        workload = PoissonWorkload(dist, {"a": 1.0, "c": 1.0}, seed=42)
        engine = BatchedSimulationEngine(graph, fee=ConstantFee(1.0))
        engine.schedule_workload(workload, horizon=500.0)
        metrics = engine.run(until=500.0)
        # all traffic crosses b at total rate 2: revenue rate ≈ 2 * fee
        assert metrics.revenue_rate("b") == pytest.approx(2.0, rel=0.15)
