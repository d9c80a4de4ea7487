"""Same scenario, same bytes: a result document never depends on what the
process ran before it.

The scenario is one operation of the benchmark's ``simulate-large``
workload (``perfbench/workloads.py``): a BA-200 simulation whose result
document embeds the graph, channel ids included. Its canonical JSON must
be the same text on a repeat run in one process and in a new interpreter
that ran another scenario first.
"""

import importlib.util
import pathlib

import pytest

from repro.scenarios import Scenario, ScenarioRunner
from repro.service.hashing import canonical_json

WORKLOADS = (
    pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"
)

spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)

DOCUMENT = workloads.scenario_doc(
    "simulate-large", "full", workloads.derive(0, "simulate-large", 0)
)
OTHER = {
    "seed": 3,
    "topology": {"kind": "star", "params": {"leaves": 6}},
    "simulation": {"horizon": 2.0},
}


def result_text(document) -> str:
    result = ScenarioRunner().run(Scenario.from_dict(document))
    return canonical_json(result.to_dict())


@pytest.fixture(scope="module")
def first_text():
    return result_text(DOCUMENT)


def test_repeat_run_in_one_process(first_text):
    assert '"channel_id":"chan-0"' in first_text
    assert result_text(DOCUMENT) == first_text


def test_fresh_process_after_another_scenario(first_text, fresh_python):
    code = (
        "from repro.scenarios import Scenario, ScenarioRunner\n"
        "from repro.service.hashing import canonical_json\n"
        f"ScenarioRunner().run(Scenario.from_dict({OTHER!r}))\n"
        "result = ScenarioRunner().run(Scenario.from_dict("
        f"{DOCUMENT!r}))\n"
        "print(canonical_json(result.to_dict()))"
    )
    assert fresh_python(code) == first_text
