"""The two entry points of the engine's one instant-payment path agree.

:meth:`BatchedSimulationEngine.run_trace` replays a trace in order;
queued events (``schedule_transactions`` + ``run``) are dispatched from
the event queue. Both hand every payment to the same function, which
routes it, reserves and releases its hops on the engine's HTLC ledger
and books it. For the same
graph, trace and seed both must give the same metrics — including the
RNG-sampled path choices of ``path_selection="random"`` — and leave the
graph in the same final state. These tests drive both entry points over
the same pre-generated traces and compare everything, and check that a
balance changed on the graph between two calls is not overwritten.
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
from repro.transactions.workload import Transaction


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


class TestBalancesBetweenCalls:
    """A balance changed on the graph between two calls is kept.

    One channel a: 5, b: 0 and two payments a -> b of 1, at t=1 and
    t=3. Between the calls b sends 1 back to a on the graph, so every
    path must end at a: 4, b: 1.
    """

    @staticmethod
    def payment(time):
        return Transaction(time=time, sender="a", receiver="b", amount=1.0)

    @staticmethod
    def graph():
        graph = ChannelGraph()
        graph.add_channel("a", "b", 5.0, 0.0)
        return graph

    @staticmethod
    def balances(graph):
        (channel,) = graph.channels
        return channel.balance("a"), channel.balance("b")

    @pytest.mark.parametrize("payment_mode", ["instant", "htlc"])
    def test_queued_run(self, payment_mode):
        graph = self.graph()
        engine = BatchedSimulationEngine(
            graph, seed=0, payment_mode=payment_mode
        )
        engine.schedule_transactions([self.payment(1.0), self.payment(3.0)])
        engine.run(until=2.0)
        graph.channels[0].send("b", 1.0)
        metrics = engine.run()
        assert metrics.succeeded == 2
        assert self.balances(graph) == (4.0, 1.0)

    def test_trace_replay(self):
        graph = self.graph()
        engine = BatchedSimulationEngine(graph, seed=0)
        engine.run_trace([self.payment(1.0)])
        graph.channels[0].send("b", 1.0)
        metrics = engine.run_trace([self.payment(3.0)])
        assert metrics.succeeded == 2
        assert self.balances(graph) == (4.0, 1.0)


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


class TestInstantOnTheLedger:
    """Instant payments reserve and release hops on the HTLC ledger."""

    def test_held_htlc_blocks_an_instant_payment(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 5.0, 0.0, max_accepted_htlcs=1)
        engine = BatchedSimulationEngine(graph, seed=0)
        engine.run()  # freezes the array state and binds the ledger
        held = engine.htlc_router.lock(["a", "b"], 1.0)
        engine.schedule_transactions([
            Transaction(time=1.0, sender="a", receiver="b", amount=1.0)
        ])
        metrics = engine.run()
        assert dict(metrics.failure_reasons) == {"no-htlc-slots": 1}
        engine.htlc_router.fail(held)
        engine.schedule_transactions([
            Transaction(time=2.0, sender="a", receiver="b", amount=1.0)
        ])
        assert engine.run().succeeded == 1

    def test_trace_replay_rebinds_the_ledger(self):
        graph = ChannelGraph.from_edges([("a", "b")], balance=5.0)
        engine = BatchedSimulationEngine(graph, seed=0)
        trace = [Transaction(time=1.0, sender="a", receiver="b", amount=1.0)]
        engine.run_trace(trace)
        assert engine.htlc_router._state is None
        engine.run()
        engine.run_trace(trace)
        assert engine.htlc_router._state is engine._state
