#!/usr/bin/env python
"""Simulation benchmark: payments per second of a trace replay.

Replays one pre-generated Poisson trace (fixed-size payments, linear
fees, ``path_selection="random"``) through
:class:`~repro.simulation.fastpath.BatchedSimulationEngine` on a BA
snapshot and reports wall-clock throughput and the success rate.

Run:
    PYTHONPATH=src python benchmarks/perf/bench_simulation.py
    PYTHONPATH=src python benchmarks/perf/bench_simulation.py --smoke

Writes ``BENCH_simulation.json`` (see ``--output``). CI gates the smoke
rows against the committed baseline via ``benchmarks/perf/gate.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict

from repro import __version__
from repro.scenarios import (
    FeeSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenarios.factory import build_fee, build_topology, build_workload
from repro.simulation.fastpath import BatchedSimulationEngine

# (n, horizon): horizon 100 at unit per-node rate ~= 100 * n payments,
# so the full n=1000 case replays ~100k payments (the ISSUE 4 target).
FULL_CASES = ((200, 15.0), (1000, 100.0))
SMOKE_CASES = ((200, 15.0),)
SEED = 7
#: Lognormal capacity location: well capitalised at first, but the long
#: replays deplete it (the committed rows show 89.5% success at n=200,
#: horizon 15, and 33.8% at n=1000, horizon 100).
CAPACITY_MU = 3.0


def scenario_for(n: int, horizon: float) -> Scenario:
    return Scenario(
        topology=TopologySpec("ba", {"n": n, "capacity_mu": CAPACITY_MU}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=horizon),
        name=f"bench-simulation-{n}",
        seed=SEED,
    )


def bench_case(n: int, horizon: float) -> Dict[str, object]:
    scenario = scenario_for(n, horizon)
    graph = build_topology(scenario.topology, seed=SEED)
    trace = list(build_workload(scenario, graph).generate(horizon))
    engine = BatchedSimulationEngine(graph, fee=build_fee(scenario), seed=SEED)
    start = time.perf_counter()
    metrics = engine.run_trace(trace)
    seconds = time.perf_counter() - start
    payments = len(trace)
    return {
        "n": n,
        "horizon": horizon,
        "payments": payments,
        "success_rate": metrics.success_rate,
        "batched_seconds": seconds,
        "batched_payments_per_sec": payments / seconds,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small case only, for the CI perf-regression job",
    )
    parser.add_argument(
        "--output", default="BENCH_simulation.json",
        help="where to write the results JSON",
    )
    args = parser.parse_args()
    cases = SMOKE_CASES if args.smoke else FULL_CASES

    results = []
    for n, horizon in cases:
        row = bench_case(n, horizon)
        results.append(row)
        print(
            f"n={row['n']:<5d} payments={row['payments']:>7d}  "
            f"batched={row['batched_payments_per_sec']:>7.0f}/s  "
            f"success={row['success_rate']:.3f}"
        )

    document = {
        "benchmark": "simulation",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
