"""Cross-module integration: join a snapshot, then validate by simulation.

The analytic model predicts expected revenue and fee rates; the simulator
measures them. These tests close the loop end-to-end (the test-sized
version of bench E11).
"""


import pytest

from repro.core.algorithms.greedy import greedy_fixed_funds
from repro.core.strategy import Action, Strategy
from repro.core.utility import JoiningUserModel
from repro.network.fees import ConstantFee
from repro.params import ModelParameters
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.snapshots.synthetic import (
    barabasi_albert_snapshot,
    core_periphery_snapshot,
)
from repro.transactions.rates import edge_rates, intermediary_traffic
from repro.transactions.workload import PoissonWorkload
from repro.transactions.zipf import ModifiedZipf


class TestJoinPipeline:
    def test_greedy_prefers_central_peers_on_core_periphery(self):
        """Joining a hub-and-spoke network, greedy should pick hubs."""
        graph = core_periphery_snapshot(
            core_size=4, periphery_size=26, periphery_links=1, seed=3
        )
        params = ModelParameters(
            onchain_cost=0.5, fee_avg=0.5, fee_out_avg=0.1,
            total_tx_rate=50.0, user_tx_rate=2.0, zipf_s=1.0,
        )
        core = {f"n{i}" for i in range(4)}
        # exact (betweenness) revenue: the first, highest-gain pick is a hub
        model = JoiningUserModel(graph, "me", params)
        result = greedy_fixed_funds(model, budget=3.0, lock=1.0)
        assert result.strategy.peers
        assert result.strategy.peers[0] in core or result.strategy.peers[-1] in core
        # fixed-rate mode concentrates entirely on the core
        fixed = JoiningUserModel(graph, "me2", params, revenue_mode="fixed-rate")
        fixed_result = greedy_fixed_funds(fixed, budget=3.0, lock=1.0)
        assert all(peer in core for peer in fixed_result.strategy.peers)

    def test_greedy_strategy_utility_reported_consistently(self):
        graph = barabasi_albert_snapshot(20, seed=8)
        params = ModelParameters(fee_avg=0.5, total_tx_rate=50.0)
        model = JoiningUserModel(graph, "me", params)
        result = greedy_fixed_funds(model, budget=4.0, lock=1.0)
        assert result.utility == pytest.approx(model.utility(result.strategy))


class TestAnalyticVsSimulated:
    def test_edge_rates_match_simulation(self):
        """Eq. 2's λ_e ≈ observed edge traffic rates on a snapshot."""
        graph = barabasi_albert_snapshot(
            15, seed=5, capacity_mu=6.0, capacity_sigma=0.2
        )
        s = 1.0
        total_rate = float(len(graph))
        distribution = ModifiedZipf(graph, s=s)
        predicted = edge_rates(graph, distribution, total_tx_rate=total_rate)

        workload = PoissonWorkload(
            distribution, {v: 1.0 for v in graph.nodes}, seed=17
        )
        engine = BatchedSimulationEngine(graph.copy(), fee=ConstantFee(0.0))
        horizon = 300.0
        engine.schedule_workload(workload, horizon)
        metrics = engine.run(until=horizon)
        assert metrics.success_rate > 0.95  # capacities are huge

        # compare the busiest predicted edges
        busiest = sorted(predicted, key=predicted.get, reverse=True)[:5]
        for edge in busiest:
            observed = metrics.edge_rate(*edge)
            assert observed == pytest.approx(predicted[edge], rel=0.35), edge

    def test_intermediary_revenue_matches_simulation(self):
        """Eq. 3's E_rev ≈ fee income measured by the simulator."""
        graph = barabasi_albert_snapshot(
            12, seed=6, capacity_mu=6.0, capacity_sigma=0.2
        )
        fee = 0.25
        distribution = ModifiedZipf(graph, s=1.0)
        per_sender = {v: 1.0 for v in graph.nodes}
        predicted_traffic = intermediary_traffic(
            graph, distribution, per_sender_rates=per_sender
        )
        top_node = max(predicted_traffic, key=predicted_traffic.get)
        predicted_revenue = fee * predicted_traffic[top_node]
        assert predicted_revenue > 0

        workload = PoissonWorkload(distribution, per_sender, seed=23)
        engine = BatchedSimulationEngine(
            graph.copy(), fee=ConstantFee(fee), fee_forwarding=False
        )
        horizon = 400.0
        engine.schedule_workload(workload, horizon)
        metrics = engine.run(until=horizon)
        observed = metrics.revenue_rate(top_node)
        assert observed == pytest.approx(predicted_revenue, rel=0.3)

    def test_joining_user_revenue_realised_in_simulation(self):
        """A bridge position predicted to earn does earn when simulated."""
        from repro.network.graph import ChannelGraph

        graph = ChannelGraph()
        # two clusters joined by a long path; u will bridge them
        for u, v in [("a1", "a2"), ("a2", "a3"), ("a3", "b1"),
                     ("b1", "b2"), ("b2", "b3")]:
            graph.add_channel(u, v, 50.0, 50.0)
        params = ModelParameters(
            fee_avg=0.5, fee_out_avg=0.0, total_tx_rate=6.0,
            user_tx_rate=0.001, zipf_s=0.0,
        )
        from repro.transactions.distributions import UniformDistribution

        model = JoiningUserModel(
            graph, "u", params,
            distribution=UniformDistribution.from_graph(graph),
        )
        strategy = Strategy([Action("a1", 50.0), Action("b3", 50.0)])
        predicted = model.expected_revenue(strategy)
        assert predicted > 0

        sim_graph = model.with_strategy(strategy)
        workload = PoissonWorkload(
            UniformDistribution.from_graph(graph),
            {v: 1.0 for v in graph.nodes},
            seed=9,
        )
        engine = BatchedSimulationEngine(
            sim_graph, fee=ConstantFee(params.fee_avg), fee_forwarding=False
        )
        horizon = 500.0
        engine.schedule_workload(workload, horizon)
        metrics = engine.run(until=horizon)
        assert metrics.revenue_rate("u") == pytest.approx(predicted, rel=0.35)
