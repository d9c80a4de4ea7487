"""The benchmark's layer shims (perfbench/shims.py) against the engines.

The shims wrap ``run`` in each engine class's own ``__dict__`` and
``run_trace`` in ``BatchedSimulationEngine``'s, under one span name. A
traced scenario must therefore record exactly one ``simulation.run``
span per simulated run on either backend and in either payment mode,
and uninstalling must put every original back (the uninstaller raises
otherwise). An engine refactor that moves or renames those methods
fails here instead of only in the benchmark's own self-test.
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


def toy_scenario(backend, payment_mode):
    return Scenario.from_dict({
        "seed": 3,
        "topology": {"kind": "ba", "params": {"n": 12}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}},
        "simulation": {
            "horizon": 1.0, "backend": backend, "payment_mode": payment_mode,
        },
    })


@pytest.mark.parametrize("payment_mode", ["instant", "htlc"])
@pytest.mark.parametrize("backend", ["event", "batched"])
def test_one_simulation_span_per_run(backend, payment_mode):
    originals = {
        engine: dict(engine.__dict__)
        for engine in (SimulationEngine, BatchedSimulationEngine)
    }
    recorder = shims.Recorder()
    uninstall = shims.install_program_shims(recorder)
    try:
        for _ in range(2):
            metrics = ScenarioRunner().run(
                toy_scenario(backend, payment_mode)
            ).metrics
    finally:
        uninstall()
    runs = [span for span in recorder.spans if span[0] == "simulation.run"]
    assert len(runs) == 2
    assert all(span[2] is not None for span in runs)
    assert recorder.counts["simulation.payments"] == 2 * metrics.attempted > 0
    for engine, attributes in originals.items():
        assert dict(engine.__dict__) == attributes
