"""E11 — rate estimation and analytic-vs-simulated validation.

Three series:
* weighted-Brandes vs literal shortest-path enumeration (identical values,
  large speedup) — the paper's "efficient O(n²) estimation" claim;
* scaling of the Brandes pass on growing synthetic snapshots;
* analytic E_rev (Eq. 3) vs discrete-event simulated fee income on a
  snapshot — the model's predictions are realised by the simulator.
"""

import time

from repro.analysis.tables import format_table
from repro.network.betweenness import (
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
)
from repro.network.fees import ConstantFee
from repro.simulation.engine import SimulationEngine
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.rates import intermediary_traffic
from repro.transactions.workload import PoissonWorkload
from repro.transactions.zipf import ModifiedZipf


def test_e11_brandes_equals_enumeration(benchmark, emit_table):
    graph = barabasi_albert_snapshot(14, attachments=2, seed=30)
    distribution = ModifiedZipf(graph, s=1.0)
    rows = []
    view = graph.view(directed=True)
    weight = lambda s, r: distribution.probability(s, r)

    start = time.perf_counter()
    fast = pair_weighted_betweenness(view, weight)
    fast_time = time.perf_counter() - start
    start = time.perf_counter()
    slow = pair_weighted_betweenness_exact(view, weight)
    slow_time = time.perf_counter() - start

    max_gap = max(
        abs(fast.node_value(v) - slow.node_value(v)) for v in graph.nodes
    )
    rows.append(
        {
            "n": len(graph),
            "brandes_s": fast_time,
            "enumeration_s": slow_time,
            "speedup": slow_time / max(fast_time, 1e-9),
            "max_node_gap": max_gap,
        }
    )
    emit_table(
        format_table(rows, title="E11 — weighted Brandes vs enumeration")
    )
    assert max_gap < 1e-9

    benchmark(lambda: pair_weighted_betweenness(view, weight))


def test_e11_brandes_scaling(benchmark, emit_table):
    rows = []
    for n in (20, 40, 80, 120):
        graph = barabasi_albert_snapshot(n, attachments=2, seed=n)
        distribution = ModifiedZipf(graph, s=1.0)
        view = graph.view(directed=True)
        weight = lambda s, r: distribution.probability(s, r)
        # prime zipf caches so we time the betweenness pass itself
        for node in graph.nodes:
            distribution.receivers(node)
        start = time.perf_counter()
        pair_weighted_betweenness(view, weight)
        elapsed = time.perf_counter() - start
        rows.append({"n": n, "edges": view.num_entries,
                     "seconds": elapsed})
    emit_table(format_table(rows, title="E11 — Brandes pass scaling"))
    # near-quadratic growth: 6x nodes should stay well under 100x time
    assert rows[-1]["seconds"] < 120 * rows[0]["seconds"] + 1.0

    graph = barabasi_albert_snapshot(40, attachments=2, seed=40)
    distribution = ModifiedZipf(graph, s=1.0)
    view = graph.view(directed=True)
    benchmark(
        lambda: pair_weighted_betweenness(
            view, lambda s, r: distribution.probability(s, r)
        )
    )


def test_e11_analytic_vs_simulated_revenue(benchmark, emit_table):
    graph = barabasi_albert_snapshot(
        12, seed=6, capacity_mu=6.0, capacity_sigma=0.2
    )
    fee = 0.25
    distribution = ModifiedZipf(graph, s=1.0)
    per_sender = {v: 1.0 for v in graph.nodes}
    predicted = intermediary_traffic(
        graph, distribution, per_sender_rates=per_sender
    )
    top_nodes = sorted(predicted, key=predicted.get, reverse=True)[:4]

    workload = PoissonWorkload(distribution, per_sender, seed=23)
    engine = SimulationEngine(
        graph.copy(), fee=ConstantFee(fee), fee_forwarding=False
    )
    horizon = 400.0
    engine.schedule_workload(workload, horizon)
    metrics = engine.run(until=horizon)

    rows = []
    for node in top_nodes:
        analytic = fee * predicted[node]
        observed = metrics.revenue_rate(node)
        rel_err = abs(observed - analytic) / max(analytic, 1e-12)
        rows.append(
            {
                "node": str(node),
                "analytic_Erev": analytic,
                "simulated_rate": observed,
                "rel_err": rel_err,
            }
        )
    emit_table(
        format_table(
            rows, title="E11 / Eq. 3 — analytic vs simulated revenue rates"
        )
    )
    assert metrics.success_rate > 0.9
    # the top earner must match within Poisson noise
    assert rows[0]["rel_err"] < 0.3

    def quick_sim():
        quick = SimulationEngine(
            graph.copy(), fee=ConstantFee(fee), fee_forwarding=False
        )
        quick_load = PoissonWorkload(distribution, per_sender, seed=5)
        quick.schedule_workload(quick_load, 20.0)
        return quick.run(until=20.0)

    benchmark(quick_sim)
