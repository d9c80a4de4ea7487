"""The benchmark's layer shims (perfbench/shims.py) against the engine.

The shims wrap ``run`` in ``SimulationEngine``'s and in
``BatchedSimulationEngine``'s own ``__dict__``, and ``run_trace`` in
``BatchedSimulationEngine``'s, under one span name. A traced scenario
must therefore record exactly one ``simulation.run`` span per simulated
run in either payment mode and under attack, and uninstalling must put
every original back (the uninstaller raises otherwise). An engine
refactor that moves, renames, aliases or merges those methods fails here
instead of only in the benchmark's own self-test.
"""

import importlib.util
import pathlib

import pytest

from repro.scenarios import Scenario, ScenarioRunner
from repro.simulation.engine import SimulationEngine
from repro.simulation.fastpath import BatchedSimulationEngine

SHIMS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "shims.py"

spec = importlib.util.spec_from_file_location("perfbench_shims", SHIMS)
shims = importlib.util.module_from_spec(spec)
spec.loader.exec_module(shims)

SLOW_JAMMING = {"kind": "slow-jamming", "params": {"budget": 50.0}}


def toy_scenario(backend, payment_mode, attack=None):
    document = {
        "seed": 3,
        "topology": {"kind": "ba", "params": {"n": 12}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}},
        "simulation": {
            "horizon": 1.0, "backend": backend, "payment_mode": payment_mode,
        },
    }
    if attack is not None:
        document["attack"] = attack
    return Scenario.from_dict(document)


def traced_runs(scenario, runs):
    """The recorder after ``runs`` traced runs of ``scenario``, and the
    last result; checks that uninstalling restored both classes."""
    originals = {
        engine: dict(engine.__dict__)
        for engine in (SimulationEngine, BatchedSimulationEngine)
    }
    recorder = shims.Recorder()
    uninstall = shims.install_program_shims(recorder)
    try:
        for _ in range(runs):
            result = ScenarioRunner().run(scenario)
    finally:
        uninstall()
    for engine, attributes in originals.items():
        assert dict(engine.__dict__) == attributes
    return recorder, result


def simulation_spans(recorder):
    runs = [span for span in recorder.spans if span[0] == "simulation.run"]
    assert all(span[2] is not None for span in runs)
    return runs


@pytest.mark.parametrize("payment_mode", ["instant", "htlc"])
@pytest.mark.parametrize("backend", ["batched"])
def test_one_simulation_span_per_run(backend, payment_mode):
    recorder, result = traced_runs(toy_scenario(backend, payment_mode), runs=2)
    assert len(simulation_spans(recorder)) == 2
    assert recorder.counts["simulation.payments"] == 2 * result.metrics.attempted > 0


@pytest.mark.parametrize("payment_mode", ["instant", "htlc"])
def test_one_simulation_span_per_attack_run(payment_mode):
    # An attack simulates a baseline and an attacked run.
    scenario = toy_scenario("batched", payment_mode, attack=SLOW_JAMMING)
    recorder, result = traced_runs(scenario, runs=1)
    assert len(simulation_spans(recorder)) == 2
    assert result.attack is not None
