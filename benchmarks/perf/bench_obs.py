#!/usr/bin/env python
"""Replay throughput and observability overhead: obs-off vs obs-on.

Replays one pre-generated Poisson trace through the batched backend
twice on identical graphs — instrumentation disabled (the default null
session) and enabled (what ``REPRO_OBS=1`` and ``repro profile`` buy:
metrics registry + phase timing) — and reports the throughput ratio.
The design contract of :mod:`repro.obs` is "zero overhead when
disabled, a few percent when enabled"; ``throughput_ratio`` (on/off) is
the gated budget. Every row carries a parity proof (bit-identical
metrics documents across both runs), so the overhead numbers can never
come from diverging results. ``payments_per_sec_off`` is the batched
backend's plain replay throughput.

Run:
    PYTHONPATH=src python benchmarks/perf/bench_obs.py
    PYTHONPATH=src python benchmarks/perf/bench_obs.py --smoke

Writes ``BENCH_obs.json`` (see ``--output``). CI gates the smoke rows
against the committed baseline via ``benchmarks/perf/gate.py``: the
ratio at ``--floor-relative 0.90``, the off throughput at the default
0.1x absolute floor.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict

from repro import __version__
from repro.obs import ObsSession
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
# so the full n=1000 case replays ~100k payments; the smoke case stays
# CI-sized.
FULL_CASES = ((200, 15.0), (1000, 100.0))
SMOKE_CASES = ((200, 15.0),)
SEED = 7
#: Lognormal capacity location: well capitalised at first, but the long
#: replays deplete it (89.5% success at n=200, horizon 15, and 33.8% at
#: n=1000, horizon 100).
CAPACITY_MU = 3.0
#: Timed repeats per side; best-of damps scheduler noise.
REPEATS = 3


def scenario_for(n: int, horizon: float) -> Scenario:
    return Scenario(
        topology=TopologySpec("ba", {"n": n, "capacity_mu": CAPACITY_MU}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=horizon, backend="batched"),
        name=f"bench-obs-{n}",
        seed=SEED,
    )


def _timed_run(scenario: Scenario, trace, fee, obs: ObsSession):
    """One timed batched replay; returns (seconds, metrics)."""
    graph = build_topology(scenario.topology, seed=SEED)
    engine = BatchedSimulationEngine(graph, fee=fee, seed=SEED, obs=obs)
    start = time.perf_counter()
    metrics = engine.run_trace(trace)
    return time.perf_counter() - start, metrics


def bench_case(n: int, horizon: float) -> Dict[str, object]:
    scenario = scenario_for(n, horizon)
    graph = build_topology(scenario.topology, seed=SEED)
    workload = build_workload(scenario, graph)
    trace = list(workload.generate(horizon))
    fee = build_fee(scenario)

    # A fresh session per repeat: each run measures cold-registry cost,
    # the shape every instrumented run actually pays. Repeats are
    # interleaved and the order rotates each round, so both slow drift
    # in machine load and position-in-round effects (allocator/GC debt
    # left by the previous run) hit both configurations evenly.
    configs = (
        ("off", lambda: ObsSession(enabled=False)),
        ("on", lambda: ObsSession(enabled=True)),
    )
    best: Dict[str, tuple] = {}
    for round_index in range(REPEATS):
        shift = round_index % len(configs)
        for key, make_session in configs[shift:] + configs[:shift]:
            sample = _timed_run(scenario, trace, fee, make_session())
            if key not in best or sample[0] < best[key][0]:
                best[key] = sample
    off_seconds, off_metrics = best["off"]
    on_seconds, on_metrics = best["on"]

    parity = off_metrics.to_dict() == on_metrics.to_dict()
    payments = len(trace)
    off_pps = payments / off_seconds
    on_pps = payments / on_seconds
    return {
        "n": n,
        "horizon": horizon,
        "payments": payments,
        "success_rate": off_metrics.success_rate,
        "seconds_off": off_seconds,
        "seconds_on": on_seconds,
        "payments_per_sec_off": off_pps,
        "payments_per_sec_on": on_pps,
        "throughput_ratio": on_pps / off_pps,
        "overhead_pct": 100.0 * (on_seconds - off_seconds) / off_seconds,
        "parity_identical": parity,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small case only, for the CI perf-regression job",
    )
    parser.add_argument(
        "--output", default="BENCH_obs.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None,
        help="exit non-zero if any case's enabled-mode overhead exceeds "
        "this percentage (standalone guard; CI uses gate.py floors)",
    )
    args = parser.parse_args()
    cases = SMOKE_CASES if args.smoke else FULL_CASES

    results = []
    for n, horizon in cases:
        row = bench_case(n, horizon)
        results.append(row)
        print(
            f"n={row['n']:<5d} payments={row['payments']:>7d}  "
            f"off={row['payments_per_sec_off']:>7.0f}/s  "
            f"on={row['payments_per_sec_on']:>7.0f}/s  "
            f"ratio={row['throughput_ratio']:.3f}  "
            f"overhead={row['overhead_pct']:+.1f}%  "
            f"parity={row['parity_identical']}"
        )

    document = {
        "benchmark": "obs",
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

    broken = [row for row in results if not row["parity_identical"]]
    if broken:
        raise SystemExit(f"obs-on/obs-off parity broken: {broken}")
    if args.max_overhead is not None:
        slow = [
            row for row in results
            if row["overhead_pct"] > args.max_overhead
        ]
        if slow:
            raise SystemExit(
                f"obs overhead regression: {slow} above "
                f"{args.max_overhead}%"
            )


if __name__ == "__main__":
    main()
