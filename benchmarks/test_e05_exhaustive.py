"""E5 — Algorithm 2 / Theorem 5: discretised funds, quality vs runtime.

Series reproduced:
* approximation ratio vs the brute-force optimum over the same discrete
  action set (>= 1 - 1/e where the optimum is positive);
* the m-vs-cost trade-off: smaller granularity => more divisions tried
  (the pseudo-polynomial T of Thm 5) => more objective evaluations.
"""

import math

from repro.analysis.tables import format_table
from repro.core.algorithms.bruteforce import brute_force
from repro.core.algorithms.exhaustive import count_divisions, exhaustive_discrete
from repro.core.strategy import ActionSpace
from repro.core.utility import JoiningUserModel
from repro.snapshots.synthetic import barabasi_albert_snapshot

GUARANTEE = 1 - 1 / math.e


def build_model(profitable_params, seed: int = 4) -> JoiningUserModel:
    graph = barabasi_albert_snapshot(10, attachments=2, seed=seed)
    return JoiningUserModel(
        graph, "u", profitable_params, revenue_mode="fixed-rate"
    )


def test_e05_ratio(benchmark, emit_table, profitable_params):
    budget = 3.0
    rows = []
    for seed in (4, 5, 6):
        model = build_model(profitable_params, seed)
        result = exhaustive_discrete(model, budget=budget, granularity=1.0)
        omega = ActionSpace.discrete(
            model.base_graph, "u", budget, 1.0, model.params
        )
        optimum = brute_force(
            model, budget=budget, omega=omega, max_subset_size=4
        )
        ratio = (
            result.objective_value / optimum.objective_value
            if optimum.objective_value > 0
            else float("nan")
        )
        rows.append(
            {
                "seed": seed,
                "alg2_U'": result.objective_value,
                "optimum_U'": optimum.objective_value,
                "ratio": ratio,
                "ok": not (ratio < GUARANTEE - 1e-9),
            }
        )
    emit_table(format_table(rows, title="E5 / Thm 5 — Algorithm 2 vs optimum"))
    assert all(row["ok"] for row in rows)

    model = build_model(profitable_params)
    benchmark(
        lambda: exhaustive_discrete(model, budget=budget, granularity=1.0)
    )


def test_e05_granularity_tradeoff(benchmark, emit_table, profitable_params):
    """Smaller m => larger division count (runtime) — Thm 5's trade-off."""
    budget = 3.0
    rows = []
    for granularity in (3.0, 1.5, 1.0, 0.75, 0.5):
        model = build_model(profitable_params)
        result = exhaustive_discrete(
            model, budget=budget, granularity=granularity
        )
        units = int(budget / granularity)
        parts = int(budget / model.params.onchain_cost) + 1
        rows.append(
            {
                "granularity_m": granularity,
                "units": units,
                "divisions": result.details["divisions_tried"],
                "T_compositions": count_divisions(units, parts),
                "evaluations": result.evaluations,
                "U'": result.objective_value,
            }
        )
    emit_table(
        format_table(
            rows, title="E5 — granularity m vs search size (Thm 5 trade-off)"
        )
    )
    divisions = [row["divisions"] for row in rows]
    assert divisions == sorted(divisions), "finer m must enlarge the search"
    # quality is weakly improving as the grid refines on this instance
    assert rows[-1]["U'"] >= rows[0]["U'"] - 1e-9

    model = build_model(profitable_params)
    benchmark(
        lambda: exhaustive_discrete(model, budget=budget, granularity=1.5)
    )
