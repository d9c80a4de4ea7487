"""The result documents the service stores: each is plain JSON that reads
back equal from its JSON text, and carries every field of its artifact."""

import json
from dataclasses import fields

import pytest

from repro.attacks.report import AttackReport
from repro.core.algorithms.common import OptimisationResult
from repro.core.strategy import Action, Strategy
from repro.evolution.trajectory import EpochRecord, Trajectory
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.specs import (
    AlgorithmSpec,
    AttackSpec,
    EvolutionSpec,
    FeeSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.service.hashing import content_hash
from repro.simulation.metrics import SimulationMetrics


class TestAttackReportRoundTrip:
    def make(self):
        return AttackReport(
            strategy="slow-jamming", victim="center", horizon=40.0,
            budget=100.0, budget_spent=60.0, attacker_fees_paid=1.5,
            attacker_upfront_paid=0.75,
            attacks_launched=10, attacks_held=8, attacks_rejected=2,
            locked_liquidity_integral=123.4,
            baseline_attempted=50, baseline_succeeded=40,
            baseline_success_rate=0.8, attacked_succeeded=30,
            attacked_success_rate=0.6, success_rate_degradation=0.2,
            baseline_victim_revenue=5.0, attacked_victim_revenue=2.0,
            victim_revenue_delta=3.0, baseline_total_revenue=9.0,
            attacked_total_revenue=6.0,
            baseline_victim_upfront_revenue=0.4,
            attacked_victim_upfront_revenue=0.3,
        )

    def test_json_round_trip_is_lossless(self):
        report = self.make()
        document = json.loads(json.dumps(report.to_dict()))
        del document["schema_version"]
        assert document == {
            spec_field.name: getattr(report, spec_field.name)
            for spec_field in fields(report)
        }

    def test_document_is_schema_versioned(self):
        assert self.make().to_dict()["schema_version"] == 2

    def test_attacker_roi(self):
        report = self.make()
        assert report.attacker_cost == pytest.approx(60.0 + 1.5 + 0.75)
        assert report.attacker_roi == pytest.approx(3.0 / 62.25)


class TestTrajectoryRoundTrip:
    def make(self):
        record = EpochRecord(
            epoch=0, nodes=4, channels=3, arrivals=1, departures=0,
            closure_costs=0.0, attempted=5, succeeded=4, success_rate=0.8,
            total_revenue=1.5, revenue_gini=0.2, moves=1, max_gain=0.1,
            welfare=2.0, topology="star",
            move_log=({"node": "a", "gain": 0.1, "add": ["b"], "remove": []},),
        )
        return Trajectory(
            records=(record,), converged=True, epochs_run=1, seed=7,
            final_topology="star", nash_stable=True, final_max_gain=0.0,
            totals={"total_moves": 1.0},
        )

    def test_json_round_trip_is_lossless(self):
        trajectory = self.make()
        assert json.loads(trajectory.to_json()) == trajectory.to_dict()

    def test_document_is_schema_versioned(self):
        assert self.make().to_dict()["schema_version"] == 1


class TestSimulationMetricsRoundTrip:
    def make(self):
        metrics = SimulationMetrics(seed=3)
        metrics.attempted = 10
        metrics.succeeded = 8
        metrics.failed = 2
        metrics.volume_delivered = 12.5
        metrics.revenue["hub"] = 1.25
        metrics.fees_paid["a"] = 0.5
        metrics.sent["a"] = 4
        metrics.received["b"] = 4
        metrics.edge_traffic[("a", "hub")] = 4
        metrics.failure_reasons["no liquidity"] = 2
        metrics.horizon = 50.0
        metrics.htlc_locked_peak = 3.5
        return metrics

    def test_round_trip_preserves_all_tallies(self):
        document = self.make().to_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["revenue"] == [["hub", 1.25]]
        assert document["fees_paid"] == [["a", 0.5]]
        assert document["edge_traffic"] == [["a", "hub", 4]]
        assert document["failure_reasons"] == {"no liquidity": 2}
        assert document["htlc_locked_peak"] == 3.5
        assert document["seed"] == 3


class TestOptimisationResultRoundTrip:
    def make(self):
        return OptimisationResult(
            algorithm="greedy",
            strategy=Strategy([Action("hub", 2.0), Action("b", 1.0)]),
            objective_value=1.5,
            utility=1.2,
            evaluations=17,
            details={"prefix": [0.5, 1.0]},
        )

    def test_round_trip_is_lossless(self):
        document = self.make().to_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["algorithm"] == "greedy"
        assert document["strategy"] == [["b", 1.0], ["hub", 2.0]]
        assert document["objective_value"] == 1.5
        assert document["utility"] == 1.2
        assert document["evaluations"] == 17
        assert document["details"] == {"prefix": [0.5, 1.0]}


def _result_doc_round_trip(result):
    """The stored document: plain JSON that reads back equal, and hashable
    (canonical JSON, no non-finite float)."""
    document = result.to_dict()
    assert json.loads(json.dumps(document)) == document
    assert content_hash(document)
    return document


class TestScenarioResultRoundTrip:
    def test_simulation_result(self):
        scenario = Scenario(
            name="rt-sim",
            topology=TopologySpec("star", {"leaves": 3}),
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            simulation=SimulationSpec(horizon=3.0),
            seed=5,
        )
        result = ScenarioRunner().run(scenario)
        document = _result_doc_round_trip(result)
        assert Scenario.from_dict(document["scenario"]) == scenario
        assert document["metrics"] == result.metrics.to_dict()
        assert len(document["graph"]["nodes"]) == len(result.graph)

    def test_optimisation_result(self):
        scenario = Scenario(
            name="rt-join",
            topology=TopologySpec("star", {"leaves": 4}),
            algorithm=AlgorithmSpec(
                "greedy", {"budget": 4.0, "lock": 1.0}, user="newcomer"
            ),
            seed=5,
        )
        result = ScenarioRunner().run(scenario)
        document = _result_doc_round_trip(result)
        assert document["optimisation"]["algorithm"] == "greedy"
        assert document["optimisation"]["strategy"] == [
            [action.peer, action.locked] for action in result.optimisation.strategy
        ]

    def test_attack_result(self):
        scenario = Scenario(
            name="rt-attack",
            topology=TopologySpec("star", {"leaves": 3, "balance": 5.0}),
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            simulation=SimulationSpec(
                horizon=5.0, payment_mode="htlc", htlc_hold_mean=0.2
            ),
            attack=AttackSpec("slow-jamming", {"budget": 10.0}),
            seed=5,
        )
        result = ScenarioRunner().run(scenario)
        document = _result_doc_round_trip(result)
        assert document["attack"] == result.attack.to_dict()
        assert document["baseline_metrics"] == (
            result.baseline_metrics.to_dict()
        )

    def test_evolution_result(self):
        scenario = Scenario(
            name="rt-evolve",
            topology=TopologySpec("star", {"leaves": 3}),
            workload=WorkloadSpec("poisson", {"zipf_s": 2.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            evolution=EvolutionSpec(epochs=1, traffic_horizon=0.0),
            seed=5,
        )
        result = ScenarioRunner().run(scenario)
        document = _result_doc_round_trip(result)
        assert document["evolution"] == result.evolution.to_dict()
