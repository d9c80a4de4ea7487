#!/usr/bin/env python
"""Price a jamming attack under success-only vs upfront fee policies.

Slow jamming is nearly free under Lightning's success-only fees: jams
never settle, so the attacker occupies the hub's HTLC slots and
liquidity for the whole horizon while paying (almost) nothing. The
proposed countermeasure — *upfront fees* — charges every attempt for
each hop it actually places, settle or not. This example sweeps that
policy over the paper's three Nash-equilibrium topologies (star, path,
circle) with :func:`repro.analysis.countermeasure_table`:

* the **damage** an attack does (victim revenue destroyed, honest
  success-rate degradation) is identical under every policy — the
  upfront charge is ledger-only, so liquidity and slot dynamics never
  change;
* the attack's **cost** grows linearly with the upfront rate, so the
  attacker's return on investment falls strictly — the table's last
  rows are the countermeasure's dose-response curve.

The sweep is cache-aware: pass ``--cache PATH`` and re-runs only
execute grid points whose resolved scenarios changed.

Run:
    python examples/upfront_fees.py
    python examples/upfront_fees.py --smoke          # CI-sized
    python examples/upfront_fees.py --cache .repro-cache
"""

import argparse

from repro.analysis import format_table
from repro.analysis.countermeasures import TABLE_COLUMNS, countermeasure_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sweep (5 nodes, 10 time units) for CI",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="content-addressed result store for the sweep",
    )
    args = parser.parse_args()

    size, horizon, budget = (5, 10.0, 200.0) if args.smoke else (9, 40.0, 1000.0)
    rates = [0.01, 0.02, 0.05, 0.1]

    rows = countermeasure_table(
        rates,
        budget=budget,
        strategy="slow-jamming",
        size=size,
        horizon=horizon,
        seed=7,
        cache=args.cache,
    )
    print(format_table(
        rows,
        columns=list(TABLE_COLUMNS),
        title="slow jamming vs upfront fees (NE topologies)",
    ))
    print()

    # Sanity-check the claims the table makes, per topology.
    for topology in ("star", "path", "circle"):
        policy_rows = [r for r in rows if r["topology"] == topology]
        rois = [r["attacker_roi"] for r in policy_rows]
        deltas = {round(r["victim_revenue_delta"], 12) for r in policy_rows}
        assert len(deltas) == 1, "upfront fees must not change attack damage"
        assert all(a > b for a, b in zip(rois, rois[1:])), (
            "attacker ROI must fall strictly with the upfront rate"
        )
        drop = 1.0 - rois[-1] / rois[0] if rois[0] else 0.0
        print(
            f"{topology:>6}: damage constant at "
            f"{policy_rows[0]['victim_revenue_delta']:.4f}, attacker ROI "
            f"down {drop:.0%} at upfront rate {rates[-1]}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
