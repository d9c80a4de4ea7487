"""End-to-end tests of the attack runner and its scenario integration."""

import pytest

from repro.attacks import AttackReport, AttackRunner, select_victim
from repro.equilibrium.topologies import CENTER, circle, path, star
from repro.errors import ScenarioError
from repro.simulation.engine import SimulationEngine
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.scenarios import (
    AlgorithmSpec,
    AttackSpec,
    FeeSpec,
    Scenario,
    ScenarioRunner,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)


def attack_scenario(kind="slow-jamming", params=None, topology=None, seed=7):
    return Scenario(
        topology=topology or TopologySpec("star", {"leaves": 6, "balance": 10.0}),
        workload=WorkloadSpec("poisson", {"rate": 1.0, "zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(
            horizon=20.0, payment_mode="htlc", htlc_hold_mean=0.2
        ),
        attack=AttackSpec(kind, {"budget": 500.0, **(params or {})}),
        name="attack-test",
        seed=seed,
    )


class TestVictimSelection:
    def test_star_auto_victim_is_center(self):
        assert select_victim(star(5, balance=1.0)) == CENTER

    def test_path_auto_victim_is_middle(self):
        assert select_victim(path(5, balance=1.0)) == "v002"

    def test_circle_tie_breaks_deterministically(self):
        assert select_victim(circle(6, balance=1.0)) == "v000"

    def test_explicit_victim_validated(self):
        with pytest.raises(ScenarioError, match="not a node"):
            select_victim(star(5), victim="nope")
        assert select_victim(star(5), victim="v001") == "v001"


class TestAttackRunner:
    def test_jamming_destroys_victim_revenue(self):
        outcome = AttackRunner().run(attack_scenario("slow-jamming"))
        report = outcome.report
        assert report.victim == CENTER
        assert report.victim_revenue_delta > 0
        assert report.success_rate_degradation > 0
        assert report.locked_liquidity_integral > 0
        assert 0 < report.budget_spent <= report.budget
        # jams never settle, so jamming pays no routing fees
        assert report.attacker_fees_paid == 0.0
        assert report.attacks_held > 0

    def test_depletion_destroys_victim_revenue_and_pays_fees(self):
        outcome = AttackRunner().run(attack_scenario("liquidity-depletion"))
        report = outcome.report
        assert report.victim_revenue_delta > 0
        assert report.attacker_fees_paid > 0
        assert report.budget_spent <= report.budget + 1e-9

    def test_griefing_locks_liquidity_cheaply(self):
        outcome = AttackRunner().run(attack_scenario("fee-griefing"))
        report = outcome.report
        assert report.locked_liquidity_integral > 0
        assert report.attacker_fees_paid == 0.0
        assert report.attacks_launched > report.attacks_held >= 0

    def test_deterministic_across_runs(self):
        scenario = attack_scenario("slow-jamming")
        first = AttackRunner().run(scenario).report
        second = AttackRunner().run(scenario).report
        assert first == second

    def test_baseline_untouched_by_attacker(self):
        scenario = attack_scenario("slow-jamming")
        outcome = AttackRunner().run(scenario)
        # the honest baseline saw the identical trace: attempted counts
        # match, and the baseline graph never contained attacker nodes
        assert outcome.baseline_metrics.attempted == outcome.attacked_metrics.attempted
        assert "attacker:src" in outcome.graph
        plain = Scenario(
            topology=scenario.topology,
            workload=scenario.workload,
            fee=scenario.fee,
            simulation=scenario.simulation,
            name="honest",
            seed=scenario.seed,
        )
        honest = ScenarioRunner().run(plain)
        assert honest.metrics.attempted == outcome.baseline_metrics.attempted
        # the plain run drains HTLC resolves scheduled past the horizon,
        # the attack baseline cuts at until=horizon — so the plain run may
        # settle a few more, never fewer
        assert honest.metrics.succeeded >= outcome.baseline_metrics.succeeded
        assert honest.metrics.failed == outcome.baseline_metrics.failed

    def test_explicit_victim_and_slot_cap(self):
        outcome = AttackRunner().run(
            attack_scenario("slow-jamming", {"victim": "v001", "slot_cap": 5})
        )
        assert outcome.report.victim == "v001"
        # pre-attack channels carry the cap; attacker channels keep 483
        caps = {
            c.max_accepted_htlcs
            for c in outcome.graph.channels_of("v001")
        }
        assert 5 in caps

    def test_unknown_victim_fails_before_the_baseline_runs(self, monkeypatch):
        runs = []
        for engine in (SimulationEngine, BatchedSimulationEngine):
            monkeypatch.setattr(
                engine, "run", lambda self, until=None: runs.append(self)
            )
        with pytest.raises(ScenarioError, match="not a node"):
            AttackRunner().run(
                attack_scenario("slow-jamming", {"victim": "nope"})
            )
        assert runs == []

    def test_unknown_strategy_raises(self):
        with pytest.raises(ScenarioError, match="unknown attack"):
            AttackRunner().run(attack_scenario("meteor-strike"))

    def test_bad_params_raise_scenario_error(self):
        with pytest.raises(ScenarioError, match="rejected params"):
            AttackRunner().run(
                attack_scenario("slow-jamming", {"warp_factor": 9})
            )


class TestScenarioIntegration:
    def test_attack_requires_simulation(self):
        with pytest.raises(ScenarioError, match="requires a simulation"):
            Scenario(
                topology=TopologySpec("star", {"leaves": 4}),
                attack=AttackSpec("slow-jamming"),
            )

    def test_attack_excludes_algorithm(self):
        with pytest.raises(ScenarioError, match="cannot be combined"):
            Scenario(
                topology=TopologySpec("star", {"leaves": 4}),
                simulation=SimulationSpec(horizon=5.0),
                algorithm=AlgorithmSpec("greedy", {"budget": 1.0}),
                attack=AttackSpec("slow-jamming"),
            )

    def test_spec_round_trips_through_json(self):
        scenario = attack_scenario("liquidity-depletion", {"slot_cap": 30})
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_runner_populates_result_and_row(self):
        scenario = attack_scenario("slow-jamming")
        result = ScenarioRunner().run(scenario)
        assert isinstance(result.attack, AttackReport)
        assert result.baseline_metrics is not None
        assert result.metrics is not None
        row = result.row
        assert row["attack_strategy"] == "slow-jamming"
        assert row["victim"] == CENTER
        assert row["victim_revenue_delta"] == result.attack.victim_revenue_delta
        # the simulation columns describe the attacked run
        assert row["succeeded"] == result.metrics.succeeded
        # attacker nodes are part of the result graph column counts
        assert row["nodes"] == len(result.graph)

    def test_report_row_is_json_plain(self):
        import json

        report = ScenarioRunner().run(attack_scenario()).attack
        assert json.loads(json.dumps(report.to_row())) == report.to_row()

    def test_sweep_over_budgets_serial_equals_process(self):
        scenario = attack_scenario("slow-jamming")
        grid = {"attack.params.budget": [0.0, 300.0]}
        serial = ScenarioRunner().run_sweep(scenario, grid, executor="serial")
        process = ScenarioRunner().run_sweep(scenario, grid, executor="process")
        assert serial == process
        assert serial[0]["victim_revenue_delta"] == 0.0  # no budget, no damage
        assert serial[1]["victim_revenue_delta"] > 0
