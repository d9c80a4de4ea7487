"""Workload definitions: scenario documents, operation seeds and output checks.

Everything here is plain data or stdlib, except :func:`run_operation` and
:func:`digest_of`, which import ``repro`` lazily. The benchmark's parent
process builds service documents from this module without importing the
program.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

WORKLOADS = ("join-greedy", "simulate-large", "attack-htlc", "service-mixed")
IN_PROCESS = WORKLOADS[:3]

#: Input sizes. "full" is what the benchmark measures; "toy" is what the
#: self-test runs in seconds. Sizes are chosen so one operation takes
#: about 0.4 s on a 2-core Xeon, giving 40-50 operations per 20 s run:
#: that machine's speed swings by +-25% within seconds, and only many
#: operations per run give medians that repeat across runs.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "join-greedy": {"n": 30},
        "simulate-large": {"n": 200, "horizon": 4.0},
        "attack-htlc": {"n": 100, "horizon": 5.0},
        "service-mixed": {"n": 200, "horizon": 1.0, "warm": 2},
    },
    "toy": {
        "join-greedy": {"n": 12},
        "simulate-large": {"n": 60, "horizon": 1.0},
        "attack-htlc": {"n": 20, "horizon": 3.0},
        "service-mixed": {"n": 40, "horizon": 1.0, "warm": 2},
    },
}

#: Operation seeds with pinned outputs. A run cycles through its
#: workload's fixed pool in an order derived from ``--seed`` and is
#: measured over whole cycles only, so every run weighs the same inputs.
#: A 20 s run completes three to five cycles; the worker runs on past
#: the deadline until :data:`MIN_CYCLES` are complete.
POOL_SIZE = {
    "full": {"join-greedy": 12, "simulate-large": 12, "attack-htlc": 10},
    "toy": {"join-greedy": 4, "simulate-large": 4, "attack-htlc": 4},
}
MIN_CYCLES = 2

_FEE = {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}
_ZIPF = {"kind": "poisson", "params": {"zipf_s": 1.0}}


def scenario_doc(workload: str, size: str, seed: int) -> Dict[str, Any]:
    """The Scenario document one operation of ``workload`` submits."""
    p = SIZES[size][workload]
    if workload == "join-greedy":
        return {
            "seed": seed,
            "topology": {"kind": "ba", "params": {"n": p["n"]}},
            "algorithm": {
                "kind": "greedy",
                "params": {"budget": 10.0, "lock": 1.0},
                "model": {"zipf_s": 1.0},
            },
        }
    topology = {"kind": "ba", "params": {"n": p["n"], "capacity_mu": 3.0}}
    if workload == "attack-htlc":
        return {
            "seed": seed,
            "topology": topology,
            "workload": _ZIPF,
            "fee": _FEE,
            "attack": {"kind": "slow-jamming", "params": {"budget": 1000.0}},
            "simulation": {
                "horizon": p["horizon"],
                "backend": "batched",
                "payment_mode": "htlc",
            },
        }
    return {
        "seed": seed,
        "topology": topology,
        "workload": _ZIPF,
        "fee": _FEE,
        "simulation": {"horizon": p["horizon"], "backend": "batched"},
    }


def derive(seed: int, *labels: Any) -> int:
    """A 31-bit seed derived from the run seed and ``labels``."""
    text = json.dumps([seed, *labels]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def operation_seeds(workload: str, size: str, run_seed: int) -> List[int]:
    """The pool of pinned operation seeds, shuffled by the run seed."""
    pool = [derive(0, workload, index) for index in range(POOL_SIZE[size][workload])]
    random.Random(run_seed).shuffle(pool)
    return pool


#: The calibration kernel's time on the reference machine. Reported times
#: are scaled to it (see :func:`calibration_kernel`).
REFERENCE_KERNEL_S = 0.020


def calibration_kernel() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    The machines this benchmark runs on change speed by a quarter over
    minutes as neighbours come and go. An in-process run times this loop
    after every operation, and its operation times are scaled by
    ``REFERENCE_KERNEL_S / median(kernel)``, so runs minutes apart stay
    comparable. The loop is benchmark code: no program change moves it.
    """
    started = time.perf_counter()
    total = 0
    table: Dict[int, int] = {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - started


def load_pinned(path: Path = PINNED) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_operation(runner: Any, workload: str, doc: Dict[str, Any]) -> Any:
    """One user operation: ``ScenarioRunner.run`` of the document."""
    from repro.scenarios.specs import Scenario

    return runner.run(Scenario.from_dict(doc))


def digest_of(workload: str, result: Any) -> Dict[str, Any]:
    """The output a run is checked on, plus the operation's work count."""
    from repro.service.hashing import content_hash

    if workload == "join-greedy":
        opt = result.optimisation
        return {
            "channels": [[str(a.peer), a.locked] for a in opt.strategy],
            "objective": opt.objective_value,
            "work": opt.evaluations,
        }
    if workload == "simulate-large":
        return {
            "digest": content_hash(result.metrics.to_dict()),
            "work": result.metrics.attempted,
        }
    report = result.attack
    return {
        "digest": content_hash(report.to_dict()),
        "work": (
            report.baseline_attempted
            + result.metrics.attempted
            + report.attacks_launched
            + report.attacks_held
        ),
    }


def matches(workload: str, got: Dict[str, Any], pinned: Dict[str, Any]) -> bool:
    """Whether an operation's output equals its pinned output."""
    if workload == "join-greedy":
        expected = pinned["objective"]
        return (
            got["channels"] == pinned["channels"]
            and abs(got["objective"] - expected) <= 1e-9 * abs(expected)
        )
    return got["digest"] == pinned["digest"]
