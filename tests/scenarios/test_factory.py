"""One factory, one seed policy: every execution path builds the same
engine.

Regression for the historical duplication between the scenario runner's
and the attack runner's engine construction: the attack baseline
run must be byte-identical to the plain simulation stage of the same
scenario, because both now go through :mod:`repro.scenarios.factory`.
"""

import dataclasses

import pytest

from repro.scenarios import (
    AttackSpec,
    FeeSpec,
    Scenario,
    ScenarioRunner,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.errors import SimulationError
from repro.scenarios.factory import (
    build_simulation_engine,
    build_topology,
    build_workload,
)
from repro.simulation.fastpath import BatchedSimulationEngine


def base_scenario(seed=7, horizon=20.0):
    return Scenario(
        topology=TopologySpec("star", {"leaves": 6, "balance": 10.0}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=horizon),
        seed=seed,
    )


def metric_fields(metrics, include_horizon=True):
    fields = {
        "attempted": metrics.attempted,
        "succeeded": metrics.succeeded,
        "failed": metrics.failed,
        "volume_delivered": metrics.volume_delivered,
        "revenue": dict(metrics.revenue),
        "fees_paid": dict(metrics.fees_paid),
        "sent": dict(metrics.sent),
        "received": dict(metrics.received),
        "edge_traffic": dict(metrics.edge_traffic),
        "failure_reasons": dict(metrics.failure_reasons),
    }
    if include_horizon:
        fields["horizon"] = metrics.horizon
    return fields


class TestOneFactory:
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_attack_baseline_equals_plain_simulation(self, seed):
        """The attack runner's honest baseline is the simulation stage.

        Identical spec + seed must produce the identical event stream —
        same payments, same routes, same per-node revenue — whether the
        engine was built for a plain simulation run or for the attack
        baseline (the horizon differs by convention: the attack runner
        pins it to the spec's horizon).
        """
        scenario = base_scenario(seed=seed)
        plain = ScenarioRunner().run(scenario)
        attacked = ScenarioRunner().run(
            dataclasses.replace(
                scenario,
                attack=AttackSpec("slow-jamming", {"budget": 50.0}),
            )
        )
        assert metric_fields(
            plain.metrics, include_horizon=False
        ) == metric_fields(attacked.baseline_metrics, include_horizon=False)

    def test_build_engine_uses_spec_fields(self):
        scenario = dataclasses.replace(
            base_scenario(),
            simulation=SimulationSpec(
                horizon=5.0,
                payment_mode="htlc",
                htlc_hold_mean=0.25,
                path_selection="first",
                route_rng="payment",
            ),
        )
        graph = build_topology(scenario.topology, seed=scenario.seed)
        engine = build_simulation_engine(scenario, graph)
        assert type(engine) is BatchedSimulationEngine
        assert engine.payment_mode == "htlc"
        assert engine.htlc_hold_mean == 0.25
        assert engine.path_selection == "first"
        assert engine.route_rng == "payment"
        instant = dataclasses.replace(
            scenario, simulation=SimulationSpec(fee_forwarding=False)
        )
        engine = build_simulation_engine(instant, graph)
        assert engine.fee_forwarding is False

    def test_engine_rejects_htlc_without_fee_forwarding(self):
        """The HTLC router always forwards fees, so the combination would
        silently run with forwarding on."""
        graph = build_topology(base_scenario().topology, seed=7)
        with pytest.raises(SimulationError, match="fee_forwarding"):
            BatchedSimulationEngine(
                graph, payment_mode="htlc", fee_forwarding=False
            )

    def test_build_simulation_engine_ignores_event_backend(self):
        """A document naming the deleted event engine still builds the
        one engine."""
        scenario = Scenario.from_dict(
            dict(base_scenario().to_dict(), simulation={"backend": "event"})
        )
        graph = build_topology(scenario.topology, seed=7)
        engine = build_simulation_engine(scenario, graph)
        assert type(engine) is BatchedSimulationEngine

    def test_attacks_import_factory_at_module_level(self):
        """The lazy-import workaround is gone (no cycle remains)."""
        import repro.attacks.runner as attacks_runner
        import repro.scenarios.factory as factory

        assert (
            attacks_runner.build_simulation_engine
            is factory.build_simulation_engine
        )
        assert attacks_runner.build_topology is factory.build_topology
        assert attacks_runner.build_workload is factory.build_workload

    def test_runner_reexports_factory(self):
        import repro.scenarios.factory as factory
        import repro.scenarios.runner as runner

        # The benchmark's layer shims patch these two names in the runner.
        for name in ("build_topology", "build_workload"):
            assert getattr(runner, name) is getattr(factory, name)

    def test_workload_seed_injection_is_shared(self):
        """Same scenario -> same trace, wherever the workload is built."""
        scenario = base_scenario(seed=13)
        g1 = build_topology(scenario.topology, seed=13)
        g2 = build_topology(scenario.topology, seed=13)
        trace1 = list(build_workload(scenario, g1).generate(10.0))
        trace2 = list(build_workload(scenario, g2).generate(10.0))
        assert trace1 == trace2
