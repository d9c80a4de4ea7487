#!/usr/bin/env python
"""Event-vs-batched simulation benchmark: payments per second.

Replays one pre-generated Poisson trace (fixed-size payments, linear
fees, ``path_selection="random"``) through both simulation backends on
the same BA snapshot and reports wall-clock throughput plus the
speedup. Every row also records a parity proof — identical
success/failure counts and the maximum absolute per-node revenue gap —
so the speedup numbers can never come from silently diverging results.

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
from repro.simulation.engine import SimulationEngine
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
    event_graph = build_topology(scenario.topology, seed=SEED)
    workload = build_workload(scenario, event_graph)
    trace = list(workload.generate(horizon))
    fee = build_fee(scenario)

    start = time.perf_counter()
    event_engine = SimulationEngine(event_graph, fee=fee, seed=SEED)
    event_engine.schedule_transactions(trace)
    event_metrics = event_engine.run()
    event_seconds = time.perf_counter() - start

    batched_graph = build_topology(scenario.topology, seed=SEED)
    batched_engine = BatchedSimulationEngine(batched_graph, fee=fee, seed=SEED)
    start = time.perf_counter()
    batched_metrics = batched_engine.run_trace(trace)
    batched_seconds = time.perf_counter() - start

    counts_identical = (
        event_metrics.succeeded == batched_metrics.succeeded
        and event_metrics.failed == batched_metrics.failed
        and dict(event_metrics.failure_reasons)
        == dict(batched_metrics.failure_reasons)
    )
    nodes = set(event_metrics.revenue) | set(batched_metrics.revenue)
    revenue_gap = max(
        (
            abs(
                event_metrics.revenue.get(node, 0.0)
                - batched_metrics.revenue.get(node, 0.0)
            )
            for node in nodes
        ),
        default=0.0,
    )
    payments = len(trace)
    return {
        "n": n,
        "horizon": horizon,
        "payments": payments,
        "success_rate": event_metrics.success_rate,
        "event_seconds": event_seconds,
        "batched_seconds": batched_seconds,
        "event_payments_per_sec": payments / event_seconds,
        "batched_payments_per_sec": payments / batched_seconds,
        "speedup": event_seconds / batched_seconds,
        "counts_identical": counts_identical,
        "parity_max_abs_gap": revenue_gap,
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
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if any case's batched/event speedup falls "
        "below this (standalone guard; CI uses gate.py floors instead)",
    )
    args = parser.parse_args()
    cases = SMOKE_CASES if args.smoke else FULL_CASES

    results = []
    for n, horizon in cases:
        row = bench_case(n, horizon)
        results.append(row)
        print(
            f"n={row['n']:<5d} payments={row['payments']:>7d}  "
            f"event={row['event_payments_per_sec']:>7.0f}/s  "
            f"batched={row['batched_payments_per_sec']:>7.0f}/s  "
            f"speedup={row['speedup']:.1f}x  "
            f"parity_gap={row['parity_max_abs_gap']:.2e}  "
            f"counts_identical={row['counts_identical']}"
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

    broken = [row for row in results if not row["counts_identical"]]
    if broken:
        raise SystemExit(f"backend parity broken: {broken}")
    if args.min_speedup is not None:
        slow = [row for row in results if row["speedup"] < args.min_speedup]
        if slow:
            raise SystemExit(
                f"simulation speedup regression: {slow} below "
                f"{args.min_speedup}x"
            )


if __name__ == "__main__":
    main()
