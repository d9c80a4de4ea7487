"""The engine's two instant-mode paths agree exactly.

:meth:`BatchedSimulationEngine.run_trace` replays a trace with array
accumulators; queued events (``schedule_transactions`` + ``run``) book
each payment into the metric dicts as it is dispatched. For the same
graph, trace and seed both must give the same metrics — including the
RNG-sampled path choices of ``path_selection="random"`` — and leave the
graph in the same final state. These tests drive both paths over the
same pre-generated traces and compare everything.
"""

import pytest

from repro.errors import ScenarioError, SimulationError
from repro.network.fees import ConstantFee
from repro.network.graph import ChannelGraph
from repro.obs import ObsSession
from repro.scenarios import (
    FeeSpec,
    Scenario,
    ScenarioRunner,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenarios.runner import build_topology, build_workload
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.workload import TraceArrays, Transaction


def metric_fields(metrics):
    return {
        "attempted": metrics.attempted,
        "succeeded": metrics.succeeded,
        "failed": metrics.failed,
        "volume_delivered": metrics.volume_delivered,
        "horizon": metrics.horizon,
        "revenue": dict(metrics.revenue),
        "fees_paid": dict(metrics.fees_paid),
        "sent": dict(metrics.sent),
        "received": dict(metrics.received),
        "edge_traffic": dict(metrics.edge_traffic),
        "failure_reasons": dict(metrics.failure_reasons),
    }


def balances_by_pair(graph):
    return {
        frozenset((c.u, c.v)): (c.balance(c.u), c.balance(c.v))
        for c in graph.channels
    }


def run_both(scenario, engine_kwargs=None):
    """(queued metrics, replay metrics, queued graph, replay graph)."""
    from repro.scenarios.factory import build_fee

    kwargs = dict(engine_kwargs or {})
    seed = scenario.seed
    queued_graph = build_topology(scenario.topology, seed=seed)
    trace = list(
        build_workload(scenario, queued_graph).generate(
            scenario.simulation.horizon
        )
    )
    fee = build_fee(scenario)
    queued = BatchedSimulationEngine(queued_graph, fee=fee, seed=seed, **kwargs)
    queued.schedule_transactions(trace)
    queued_metrics = queued.run()
    replay_graph = build_topology(scenario.topology, seed=seed)
    replay = BatchedSimulationEngine(replay_graph, fee=fee, seed=seed, **kwargs)
    replay_metrics = replay.run_trace(trace)
    return queued_metrics, replay_metrics, queued_graph, replay_graph


def scenario_for(topology, horizon=12.0, seed=7, workload_params=None):
    return Scenario(
        topology=topology,
        workload=WorkloadSpec("poisson", dict(workload_params or {})),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=horizon),
        seed=seed,
    )


class TestMetricsParity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_small_graph_parity(self, seed):
        """n < 150 exercises the python-BFS branch."""
        scenario = scenario_for(
            TopologySpec("ba", {"n": 40}), horizon=25.0, seed=seed
        )
        queued, replay, g1, g2 = run_both(scenario)
        assert metric_fields(queued) == metric_fields(replay)
        assert balances_by_pair(g1) == balances_by_pair(g2)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_csr_graph_parity(self, seed):
        """n >= 150 exercises the bidirectional search."""
        scenario = scenario_for(
            TopologySpec("ba", {"n": 200}), horizon=6.0, seed=seed
        )
        queued, replay, g1, g2 = run_both(scenario)
        assert metric_fields(queued) == metric_fields(replay)
        assert balances_by_pair(g1) == balances_by_pair(g2)

    def test_variable_amounts_parity(self):
        """Continuously-distributed sizes: one mask per distinct amount."""
        scenario = scenario_for(
            TopologySpec("ba", {"n": 160}),
            horizon=5.0,
            workload_params={
                "sizes": {
                    "kind": "truncated-exponential",
                    "scale": 0.5,
                    "high": 5.0,
                },
            },
        )
        queued, replay, g1, g2 = run_both(scenario)
        assert metric_fields(queued) == metric_fields(replay)
        assert balances_by_pair(g1) == balances_by_pair(g2)

    @pytest.mark.parametrize("kind,params", [
        ("star", {"leaves": 8, "balance": 3.0}),
        ("circle", {"n": 12, "balance": 2.0}),
        ("path", {"n": 9, "balance": 4.0}),
    ])
    def test_section_iv_topologies(self, kind, params):
        scenario = scenario_for(TopologySpec(kind, params), horizon=20.0)
        queued, replay, g1, g2 = run_both(scenario)
        assert metric_fields(queued) == metric_fields(replay)
        assert balances_by_pair(g1) == balances_by_pair(g2)

    def test_path_selection_first(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 170}), horizon=5.0)
        queued, replay, *_ = run_both(
            scenario, engine_kwargs={"path_selection": "first"}
        )
        assert metric_fields(queued) == metric_fields(replay)

    def test_payment_route_rng(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 170}), horizon=5.0)
        queued, replay, *_ = run_both(
            scenario, engine_kwargs={"route_rng": "payment"}
        )
        assert metric_fields(queued) == metric_fields(replay)

    def test_no_fee_forwarding(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 40}), horizon=10.0)
        queued, replay, *_ = run_both(
            scenario, engine_kwargs={"fee_forwarding": False}
        )
        assert metric_fields(queued) == metric_fields(replay)

    def test_backend_via_scenario_runner(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 60}), horizon=10.0)
        result = ScenarioRunner().run(scenario)
        queued, *_ = run_both(scenario)
        assert metric_fields(result.metrics) == metric_fields(queued)
        assert result.row["succeeded"] == queued.succeeded


class TestFailureParity:
    def test_unknown_endpoint_and_self_pair(self):
        graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=5.0)
        trace = [
            Transaction(time=1.0, sender="a", receiver="ghost", amount=1.0),
            Transaction(time=2.0, sender="b", receiver="b", amount=1.0),
            Transaction(time=3.0, sender="nope", receiver="nope", amount=1.0),
            Transaction(time=4.0, sender="a", receiver="c", amount=1.0),
        ]
        queued = BatchedSimulationEngine(
            ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=5.0),
            seed=0,
        )
        queued.schedule_transactions(trace)
        queued_metrics = queued.run()
        replay_metrics = BatchedSimulationEngine(graph, seed=0).run_trace(trace)
        assert metric_fields(queued_metrics) == metric_fields(replay_metrics)
        assert replay_metrics.failure_reasons["unknown-endpoint"] == 1
        assert replay_metrics.failure_reasons["other"] == 2

    def test_split_balance_failure(self):
        """Feasible at `amount` but not at amount+fees on an inner hop."""
        def build():
            graph = ChannelGraph()
            # a->b holds enough for the amount (1.0) but not for
            # amount + b's fee (1.5), so routing passes and execution
            # fails on the sender-side hop.
            graph.add_channel("a", "b", 1.2, 0.0)
            graph.add_channel("b", "c", 5.0, 0.0)
            return graph

        trace = [Transaction(time=1.0, sender="a", receiver="c", amount=1.0)]
        queued = BatchedSimulationEngine(build(), fee=ConstantFee(0.5), seed=0)
        queued.schedule_transactions(trace)
        queued_metrics = queued.run()
        replay = BatchedSimulationEngine(build(), fee=ConstantFee(0.5), seed=0)
        replay_metrics = replay.run_trace(trace)
        assert queued_metrics.failure_reasons["split-balance"] == 1
        assert metric_fields(queued_metrics) == metric_fields(replay_metrics)

    def test_no_capacity_path(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=0.5)
        batched = BatchedSimulationEngine(graph, seed=0)
        metrics = batched.run_trace(
            [Transaction(time=1.0, sender="a", receiver="b", amount=2.0)]
        )
        assert metrics.failure_reasons["no-capacity-path"] == 1


class TestGuards:
    def test_unknown_payment_mode_rejected(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=1.0)
        with pytest.raises(SimulationError, match="payment_mode"):
            BatchedSimulationEngine(graph, payment_mode="teleport")

    def test_htlc_mode_accepted(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=1.0)
        engine = BatchedSimulationEngine(graph, payment_mode="htlc")
        assert engine.payment_mode == "htlc"

    def test_bad_hold_mean_rejected(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=1.0)
        with pytest.raises(SimulationError, match="htlc_hold_mean"):
            BatchedSimulationEngine(graph, htlc_hold_mean=0.0)

    def test_parallel_channels_rejected(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 1.0)
        graph.add_channel("a", "b", 2.0, 2.0)
        engine = BatchedSimulationEngine(graph)
        with pytest.raises(SimulationError, match="parallel"):
            engine.run_trace([])

    def test_spec_accepts_batched_htlc(self):
        spec = SimulationSpec(payment_mode="htlc", backend="batched")
        assert spec.payment_mode == "htlc"

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ScenarioError, match="backend"):
            SimulationSpec(backend="warp")

    def test_batched_attack_scenario_validates(self):
        from repro.scenarios import AttackSpec

        scenario = Scenario(
            topology=TopologySpec("star", {"leaves": 4}),
            simulation=SimulationSpec(backend="batched"),
            attack=AttackSpec("slow-jamming", {"budget": 10.0}),
        )
        assert scenario.simulation.backend == "batched"

    def test_unsorted_trace_rejected(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=5.0)
        engine = BatchedSimulationEngine(graph)
        with pytest.raises(SimulationError, match="time-ordered"):
            engine.run_trace([
                Transaction(time=2.0, sender="a", receiver="b", amount=1.0),
                Transaction(time=1.0, sender="b", receiver="a", amount=1.0),
            ])


class TestTraceArrays:
    def test_round_trip(self):
        nodes = ("a", "b", "c")
        txs = [
            Transaction(time=1.0, sender="a", receiver="b", amount=2.0),
            Transaction(time=2.0, sender="x", receiver="b", amount=1.0),
            Transaction(time=3.0, sender="c", receiver="c", amount=1.0),
        ]
        trace = TraceArrays.from_transactions(txs, nodes)
        assert len(trace) == 3
        assert trace.to_transactions() == txs

    def test_generate_trace_matches_generate(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 20}), horizon=10.0)
        g1 = build_topology(scenario.topology, seed=7)
        g2 = build_topology(scenario.topology, seed=7)
        listed = list(build_workload(scenario, g1).generate(10.0))
        arrays = build_workload(scenario, g2).generate_trace(10.0, g2.nodes)
        assert arrays.to_transactions() == listed

    def test_run_trace_accepts_arrays(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 30}), horizon=8.0)
        graph = build_topology(scenario.topology, seed=7)
        trace = build_workload(scenario, graph).generate_trace(
            8.0, graph.nodes
        )
        g_list = build_topology(scenario.topology, seed=7)
        from_list = BatchedSimulationEngine(g_list, seed=7).run_trace(
            trace.to_transactions()
        )
        g_arr = build_topology(scenario.topology, seed=7)
        from_arrays = BatchedSimulationEngine(g_arr, seed=7).run_trace(trace)
        assert metric_fields(from_list) == metric_fields(from_arrays)


class TestPaymentIndexStamping:
    def test_explicit_indices_advance_the_sequence(self):
        """Default stamping after an explicit batch must not reuse its
        indices (duplicate per-payment RNG keys)."""
        graph = ChannelGraph.from_edges([("a", "b")], balance=50.0)
        engine = BatchedSimulationEngine(graph, seed=0, route_rng="payment")
        txs = [
            Transaction(time=1.0, sender="a", receiver="b", amount=1.0),
            Transaction(time=2.0, sender="a", receiver="b", amount=1.0),
        ]
        engine.schedule_transactions(txs, indices=[5, 9])
        engine.schedule_transactions(
            [Transaction(time=3.0, sender="a", receiver="b", amount=1.0)]
        )
        indices = sorted(
            event.index for _, _, event in engine._queue._heap
        )
        assert indices == [5, 9, 10]


class TestStats:
    """``fastpath.payments`` counts route searches, in both modes."""

    TRACE = [
        Transaction(time=1.0, sender="a", receiver="c", amount=1.0),
        Transaction(time=2.0, sender="b", receiver="b", amount=1.0),
        Transaction(time=3.0, sender="a", receiver="ghost", amount=1.0),
        Transaction(time=4.0, sender="c", receiver="a", amount=1.0),
        Transaction(time=5.0, sender="a", receiver="c", amount=99.0),
    ]

    @staticmethod
    def routed(obs):
        return obs.registry.snapshot()["counters"]["fastpath.payments"]

    def test_stats_account_for_all_routed_payments(self):
        scenario = scenario_for(TopologySpec("ba", {"n": 50}), horizon=15.0)
        graph = build_topology(scenario.topology, seed=7)
        trace = list(build_workload(scenario, graph).generate(15.0))
        obs = ObsSession(enabled=True)
        BatchedSimulationEngine(graph, seed=7, obs=obs).run_trace(trace)
        assert self.routed(obs) == len(trace)

    @pytest.mark.parametrize("payment_mode", ["instant", "htlc"])
    def test_counts_route_searches(self, payment_mode):
        graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=5.0)
        obs = ObsSession(enabled=True)
        engine = BatchedSimulationEngine(
            graph, seed=0, payment_mode=payment_mode, obs=obs
        )
        metrics = engine.run_trace(self.TRACE)
        assert metrics.attempted == 5
        assert metrics.failure_reasons["other"] == 1
        assert metrics.failure_reasons["unknown-endpoint"] == 1
        assert metrics.failure_reasons["no-capacity-path"] == 1
        # The self-pair and the unknown endpoint fail before any search;
        # the oversized payment is searched and finds no path.
        assert self.routed(obs) == 3

    def test_split_run_publishes_each_search_once(self):
        graph = ChannelGraph.from_edges([("a", "b"), ("b", "c")], balance=5.0)
        obs = ObsSession(enabled=True)
        engine = BatchedSimulationEngine(
            graph, seed=0, payment_mode="htlc", obs=obs
        )
        engine.schedule_transactions(self.TRACE)
        engine.run(until=3.5)
        assert self.routed(obs) == 1
        engine.run()
        assert self.routed(obs) == 3
