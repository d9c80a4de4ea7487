#!/usr/bin/env python
"""Shared perf-regression gate: smoke results vs committed baselines.

Every perf benchmark writes a JSON document of result rows
(``BENCH_graphcore.json``, ``BENCH_attacks.json``,
``BENCH_simulation.json``). CI re-runs each benchmark in smoke mode and
this gate fails the job if a row's headline metric drops below a floor
derived from the committed baseline — so the floors track what the code
actually achieves instead of hand-maintained ``--min-*`` constants.

Rows are matched between the smoke run and the baseline on per-benchmark
key fields; smoke rows with no baseline counterpart are skipped (but at
least one row must match). Two floor classes keep the gate robust on
heterogeneous CI hardware:

* **relative** metrics (speedups — old-vs-new on the *same* machine)
  are hardware-independent and gate tight (default 0.7x baseline);
* **absolute** metrics (events/payments per second) vary with the
  runner, so they gate loosely (default 0.1x baseline) — still a hard
  stop for order-of-magnitude regressions.

Run:
    python benchmarks/perf/gate.py --results smoke.json \
        --baseline BENCH_simulation.json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Tuple

#: benchmark name -> (row-matching key fields,
#:                    relative metrics, absolute metrics)
BENCHMARKS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]] = {
    "graphcore": (("workload", "n"), ("speedup",), ()),
    "attacks": (
        ("strategy", "leaves", "backend"),
        (),
        ("attacker_events_per_sec",),
    ),
    "simulation": (("n",), (), ("batched_payments_per_sec",)),
    "evolution": (("n",), (), ("epochs_per_sec",)),
    # throughput_ratio = obs-on / obs-off payments per second on the same
    # machine and run — relative by construction, so it gates tight; the
    # gate's floor-relative flag is the <=5% disabled-overhead budget.
    "obs": (("n",), ("throughput_ratio",), ("payments_per_sec_off",)),
}


def _row_key(row: Dict, fields: Tuple[str, ...]) -> Tuple:
    return tuple(row.get(field) for field in fields)


def check_floors(
    results_doc: Dict,
    baseline_doc: Dict,
    floor_relative: float,
    floor_absolute: float,
) -> List[str]:
    """Failure messages (empty = gate passes)."""
    name = results_doc.get("benchmark")
    if name != baseline_doc.get("benchmark"):
        return [
            f"benchmark mismatch: results are {name!r}, baseline is "
            f"{baseline_doc.get('benchmark')!r}"
        ]
    if name not in BENCHMARKS:
        return [f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}"]
    key_fields, relative, absolute = BENCHMARKS[name]
    baseline_rows = {
        _row_key(row, key_fields): row
        for row in baseline_doc.get("results", [])
    }
    failures: List[str] = []
    matched = 0
    for row in results_doc.get("results", []):
        key = _row_key(row, key_fields)
        base = baseline_rows.get(key)
        if base is None:
            continue
        matched += 1
        checks = [(metric, floor_relative) for metric in relative]
        checks += [(metric, floor_absolute) for metric in absolute]
        for metric, floor in checks:
            if metric not in row or metric not in base:
                # A missing metric must fail loudly: skipping it would
                # silently disable the floor it carries.
                failures.append(
                    f"{name} {dict(zip(key_fields, key))}: metric "
                    f"{metric!r} missing from "
                    f"{'results' if metric not in row else 'baseline'} row"
                )
                continue
            threshold = floor * base[metric]
            if row[metric] < threshold:
                failures.append(
                    f"{name} {dict(zip(key_fields, key))}: {metric}="
                    f"{row[metric]:.4g} below floor {threshold:.4g} "
                    f"({floor}x baseline {base[metric]:.4g})"
                )
    if matched == 0:
        failures.append(
            f"{name}: no result row matches a baseline row on "
            f"{key_fields} — the gate checked nothing"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results", required=True, help="freshly-run benchmark JSON"
    )
    parser.add_argument(
        "--baseline", required=True, help="committed BENCH_*.json baseline"
    )
    parser.add_argument(
        "--floor-relative", type=float, default=0.7,
        help="floor multiplier for relative metrics (speedups)",
    )
    parser.add_argument(
        "--floor-absolute", type=float, default=0.1,
        help="floor multiplier for absolute metrics (throughput)",
    )
    args = parser.parse_args()
    with open(args.results) as handle:
        results_doc = json.load(handle)
    with open(args.baseline) as handle:
        baseline_doc = json.load(handle)
    failures = check_floors(
        results_doc, baseline_doc, args.floor_relative, args.floor_absolute
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        raise SystemExit(1)
    print(
        f"gate passed: {results_doc['benchmark']} within "
        f"{args.floor_relative}x (relative) / {args.floor_absolute}x "
        f"(absolute) of {args.baseline}"
    )


if __name__ == "__main__":
    main()
