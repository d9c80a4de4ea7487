"""The obs determinism contract: instrumented runs are bit-identical.

Every runner path — plain simulation in both payment modes, attacks, and
evolution — is executed twice, once with the disabled null session and
once with a fully enabled session (registry + trace writer), and
the *complete* result documents are compared. Instrumentation must
never touch simulation RNG or results.
"""

import io

import pytest

from repro.obs import NULL_SESSION, ObsSession, TraceWriter, telemetry_of
from repro.scenarios import (
    AttackSpec,
    EvolutionSpec,
    FeeSpec,
    Scenario,
    ScenarioRunner,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)


def instrumented_session():
    return ObsSession(enabled=True, tracer=TraceWriter(io.StringIO()))


def simulation_scenario(seed, backend="batched", payment_mode="instant"):
    extra = {"htlc_hold_mean": 0.2} if payment_mode == "htlc" else {}
    return Scenario(
        topology=TopologySpec("ba", {"n": 30, "capacity_mu": 2.0}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(
            horizon=8.0, backend=backend, payment_mode=payment_mode, **extra
        ),
        name="obs-parity-sim",
        seed=seed,
    )


def attack_scenario(seed):
    return Scenario(
        topology=TopologySpec("star", {"leaves": 6, "balance": 10.0}),
        workload=WorkloadSpec("poisson", {"rate": 1.0, "zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(
            horizon=12.0, payment_mode="htlc", htlc_hold_mean=0.2
        ),
        attack=AttackSpec("slow-jamming", {"budget": 200.0}),
        name="obs-parity-attack",
        seed=seed,
    )


def evolution_scenario(seed):
    return Scenario(
        topology=TopologySpec("ba", {"n": 16, "capacity_mu": 2.0}),
        evolution=EvolutionSpec(
            epochs=2, traffic_horizon=3.0, final_nash_check=False
        ),
        name="obs-parity-evolution",
        seed=seed,
    )


def run_both(scenario):
    """(obs-off document, obs-on document, obs-on result) for one scenario."""
    off = ScenarioRunner(obs=NULL_SESSION).run(scenario)
    on = ScenarioRunner(obs=instrumented_session()).run(scenario)
    return off.to_dict(), on.to_dict(), on


class TestSimulationParity:
    @pytest.mark.parametrize("backend", ["batched"])
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_instant_mode_bit_identical(self, backend, seed):
        off_doc, on_doc, _ = run_both(simulation_scenario(seed, backend))
        assert on_doc == off_doc

    @pytest.mark.parametrize("backend", ["batched"])
    def test_htlc_mode_bit_identical(self, backend):
        off_doc, on_doc, _ = run_both(
            simulation_scenario(7, backend, payment_mode="htlc")
        )
        assert on_doc == off_doc

    def test_telemetry_rides_outside_the_document(self):
        scenario = simulation_scenario(7)
        off_doc, on_doc, on = run_both(scenario)
        assert on_doc == off_doc
        telemetry = telemetry_of(on.metrics)
        assert telemetry is not None
        assert telemetry.counters["fastpath.payments"] > 0
        assert "simulate" in telemetry.phase_seconds
        assert telemetry_of(on) is telemetry

    def test_obs_off_attaches_nothing(self):
        result = ScenarioRunner(obs=NULL_SESSION).run(simulation_scenario(7))
        assert telemetry_of(result) is None
        assert telemetry_of(result.metrics) is None


class TestAttackParity:
    @pytest.mark.parametrize("seed", [7, 13])
    def test_attack_run_bit_identical(self, seed):
        off_doc, on_doc, on = run_both(attack_scenario(seed))
        assert on_doc == off_doc
        telemetry = telemetry_of(on.attack)
        assert telemetry is not None
        assert telemetry.counters.get("attack.channels_opened", 0) > 0
        assert "attack.baseline" in telemetry.phase_seconds
        assert "attack.attacked" in telemetry.phase_seconds


class TestEvolutionParity:
    def test_trajectory_bit_identical(self):
        off_doc, on_doc, on = run_both(evolution_scenario(7))
        assert on_doc == off_doc
        telemetry = telemetry_of(on.evolution)
        assert telemetry is not None
        assert telemetry.counters["evolution.epochs"] >= 1.0
        assert "evolution.traffic" in telemetry.phase_seconds
