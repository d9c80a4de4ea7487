"""E13 — extension experiments beyond the paper's explicit claims.

Three series exercising the future-work surface the paper names:

* **parameter estimation round-trip** (conclusion, item 3): simulate
  traffic with known (s, N_u), recover them from the trace;
* **interest-rate cost model** (conclusion, item 2 / Guasoni [17]):
  how the optimal strategy shifts from the linear to the discounted model
  as channel lifetime grows;
* **in-flight capital** (Section II-C's opportunity cost, realised):
  HTLC hold time vs payment success under contention.
"""

from repro.analysis.estimation import (
    estimate_sender_rates,
    estimate_zipf_s,
)
from repro.analysis.tables import format_table
from repro.core.algorithms.greedy import greedy_fixed_funds
from repro.core.costmodels import DiscountedOpportunityCost
from repro.core.utility import JoiningUserModel
from repro.network.graph import ChannelGraph
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.distributions import UniformDistribution
from repro.transactions.workload import PoissonWorkload
from repro.transactions.zipf import ModifiedZipf


def test_e13_estimation_round_trip(benchmark, emit_table):
    """Known parameters in, estimates out (future-work item 3)."""
    graph = barabasi_albert_snapshot(12, seed=3)
    rows = []
    for true_s in (0.5, 1.5, 3.0):
        workload = PoissonWorkload(
            ModifiedZipf(graph, s=true_s),
            {v: 1.0 for v in graph.nodes},
            seed=4,
        )
        trace = workload.generate_count(1500)
        estimate = estimate_zipf_s(graph, trace)
        rows.append(
            {
                "true_s": true_s,
                "estimated_s": estimate.s,
                "abs_error": abs(estimate.s - true_s),
                "samples": estimate.samples,
            }
        )
    emit_table(
        format_table(rows, title="E13 — Zipf s recovery from simulated traces")
    )
    assert all(row["abs_error"] < 0.5 for row in rows)

    # rate recovery with exact Poisson CIs
    workload = PoissonWorkload(
        ModifiedZipf(graph, s=1.0), {v: 1.0 for v in graph.nodes}, seed=5
    )
    horizon = 300.0
    trace = list(workload.generate(horizon))
    estimates = estimate_sender_rates(trace, horizon)
    hits = sum(e.contains(1.0) for e in estimates.values())
    emit_table(
        format_table(
            [{"senders": len(estimates), "ci_covering_truth": hits}],
            title="E13 — per-sender rate CIs (95%) covering the true rate",
        )
    )
    assert hits >= 0.8 * len(estimates)

    small_trace = trace[:200]
    benchmark(lambda: estimate_zipf_s(graph, small_trace, coarse_points=10,
                                      refine_iterations=10))


def test_e13_cost_model_ablation(benchmark, emit_table, profitable_params):
    """Guasoni-style discounting shrinks optimal channel counts as the
    channel lifetime (and hence forgone interest) grows."""
    graph = barabasi_albert_snapshot(12, seed=7)
    rows = []
    for lifetime in (0.1, 2.0, 10.0, 50.0):
        cost_model = DiscountedOpportunityCost(
            onchain_cost=profitable_params.onchain_cost,
            interest_rate=0.05,
            lifetime=lifetime,
        )
        model = JoiningUserModel(
            graph, "u", profitable_params,
            revenue_mode="fixed-rate", cost_model=cost_model,
        )
        result = greedy_fixed_funds(
            model, budget=8.0, lock=4.0, objective="utility"
        )
        rows.append(
            {
                "lifetime": lifetime,
                "effective_rate": cost_model.effective_linear_rate(),
                "channels": len(result.strategy),
                "utility": result.objective_value,
            }
        )
    emit_table(
        format_table(
            rows, title="E13 — discounted (interest-rate) cost model ablation"
        )
    )
    # longer lifetimes => heavier locking cost => weakly lower utility
    utilities = [row["utility"] for row in rows]
    assert all(u2 <= u1 + 1e-9 for u1, u2 in zip(utilities, utilities[1:]))
    rates = [row["effective_rate"] for row in rows]
    assert all(r2 >= r1 for r1, r2 in zip(rates, rates[1:]))

    model = JoiningUserModel(
        graph, "u2", profitable_params, revenue_mode="fixed-rate",
        cost_model=DiscountedOpportunityCost(0.4, 0.05, 10.0),
    )
    benchmark(lambda: greedy_fixed_funds(model, budget=8.0, lock=4.0,
                                         objective="utility"))


def test_e13_htlc_hold_time_contention(benchmark, emit_table):
    """In-flight capital is real opportunity cost: longer HTLC holds mean
    more contention and lower effective success under load."""

    def run(hold: float):
        graph = ChannelGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "d")], balance=3.0
        )
        dist = UniformDistribution.from_graph(graph)
        workload = PoissonWorkload(dist, {n: 2.0 for n in graph.nodes}, seed=9)
        engine = BatchedSimulationEngine(
            graph, payment_mode="htlc", seed=9, htlc_hold_mean=hold
        )
        engine.schedule_workload(workload, horizon=40.0)
        metrics = engine.run()
        resolved = metrics.succeeded + metrics.failed
        return (
            metrics.succeeded / resolved if resolved else 0.0,
            metrics.htlc_locked_peak,
        )

    rows = []
    for hold in (0.01, 0.5, 2.0, 5.0):
        success, peak = run(hold)
        rows.append(
            {"hold_mean": hold, "success_rate": success, "locked_peak": peak}
        )
    emit_table(
        format_table(
            rows, title="E13 — HTLC hold time vs success under contention"
        )
    )
    assert rows[0]["success_rate"] > rows[-1]["success_rate"]
    assert rows[-1]["locked_peak"] >= rows[0]["locked_peak"]

    benchmark(lambda: run(0.5))
