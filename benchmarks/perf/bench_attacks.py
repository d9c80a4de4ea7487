#!/usr/bin/env python
"""Adversarial traffic throughput: attacker events/sec under honest load.

Times the full attack stage — baseline simulation, attacked simulation
with adversarial HTLCs interleaved on the shared event queue, damage
report — for each builtin strategy on star topologies of growing size.
The headline number is **attacker actions per wall-clock second**
(lock attempts + resolutions processed by the engine), with the honest
payment throughput of the same run alongside, so regressions in either
the strategies or the slot-tracking substrate show up directly. Each
case runs :data:`REPEATS` times and reports the median wall time, as a
single timing swings by a fifth on a shared host. The
reports themselves are pinned by the attack cases of
``tests/golden/test_batched_digests.py``. Each row records the spec's
``backend`` (always ``"batched"``), which ``gate.py`` matches on.

Run:
    PYTHONPATH=src python benchmarks/perf/bench_attacks.py
    PYTHONPATH=src python benchmarks/perf/bench_attacks.py --smoke

Writes ``BENCH_attacks.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from typing import Dict

from repro import __version__
from repro.analysis.resilience import default_attack_scenario
from repro.attacks import AttackRunner
from repro.scenarios import Scenario, TopologySpec

STRATEGIES = ("slow-jamming", "liquidity-depletion", "fee-griefing")
FULL_CASES = ((16, 40.0), (64, 40.0))  # (leaves, horizon)
# The smoke case repeats a full case exactly so gate.py can match its
# rows against the committed BENCH_attacks.json baseline.
SMOKE_CASES = ((16, 40.0),)
SEED = 7
#: Timed runs per case; the reported wall time is their median.
REPEATS = 3


def attack_scenario(strategy: str, leaves: int, horizon: float) -> Scenario:
    return default_attack_scenario(
        TopologySpec("star", {"leaves": leaves, "balance": 10.0}),
        strategy,
        {"budget": 1000.0},
        horizon=horizon,
        seed=SEED,
        name=f"bench-{strategy}",
    )


def bench_case(strategy: str, leaves: int, horizon: float) -> Dict[str, object]:
    scenario = attack_scenario(strategy, leaves, horizon)
    timings = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = AttackRunner().run(scenario)
        timings.append(time.perf_counter() - start)
    seconds = statistics.median(timings)
    report = outcome.report
    # A launch is one lock attempt: a walk through the ledger, or a
    # retry at an exit refused earlier in the same tick, which is booked
    # as rejected without one. Every held HTLC also costs one resolution
    # event through the engine queue.
    attacker_events = report.attacks_launched + report.attacks_held
    honest_events = outcome.attacked_metrics.attempted
    return {
        "strategy": strategy,
        "leaves": leaves,
        "backend": scenario.simulation.backend,
        "horizon": horizon,
        "wall_seconds": seconds,
        "attacker_events": attacker_events,
        "honest_payments": honest_events,
        "attacker_events_per_sec": attacker_events / seconds,
        "honest_payments_per_sec": honest_events / seconds,
        "victim_revenue_delta": report.victim_revenue_delta,
        "locked_liquidity_integral": report.locked_liquidity_integral,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small case only, for the CI perf smoke job",
    )
    parser.add_argument(
        "--output", default="BENCH_attacks.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--min-throughput", type=float, default=None,
        help="exit non-zero if any strategy processes fewer attacker "
        "events/sec than this (CI regression guard)",
    )
    args = parser.parse_args()
    cases = SMOKE_CASES if args.smoke else FULL_CASES

    results = []
    for leaves, horizon in cases:
        for strategy in STRATEGIES:
            row = bench_case(strategy, leaves, horizon)
            results.append(row)
            print(
                f"{row['strategy']:20s} leaves={row['leaves']:<4d} "
                f"attacker={row['attacker_events']:>7d} ev "
                f"({row['attacker_events_per_sec']:>9.0f}/s)  "
                f"honest={row['honest_payments']:>6d} pay "
                f"({row['honest_payments_per_sec']:>7.0f}/s)  "
                f"wall={row['wall_seconds']*1e3:8.1f}ms"
            )

    document = {
        "benchmark": "attacks",
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

    if args.min_throughput is not None:
        slow = [
            row for row in results
            if row["attacker_events_per_sec"] < args.min_throughput
        ]
        if slow:
            raise SystemExit(
                f"attacker throughput regression: {slow} below "
                f"{args.min_throughput}/s"
            )


if __name__ == "__main__":
    main()
