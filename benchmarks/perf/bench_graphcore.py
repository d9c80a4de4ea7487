#!/usr/bin/env python
"""Old-vs-new graph-core benchmark on BA snapshots.

* **pair_weighted_betweenness** — Eq. 2/Eq. 3 accumulation: "old" is
  :func:`dict_brandes`, the original dict-of-dict Brandes pass over an
  ``nx.DiGraph`` (kept here as the reference, no longer in the library);
  "new" is the vectorised accumulation on a
  :class:`~repro.network.views.GraphView`.
* **greedy_join** — Algorithm 1 end-to-end (fixed-rate revenue mode, the
  Thm 4 regime). "old" is :class:`ReferenceModel`, which builds the
  augmented graph and runs the free functions on its view for every
  evaluation; "new" is :class:`~repro.core.utility.JoiningUserModel`,
  which scores each greedy step's candidates in one closed-form batch
  from base-graph tables.

Every timing pair also records the maximum absolute result gap, so the
speedup numbers are backed by a parity proof in the same JSON.

Run:
    PYTHONPATH=src python benchmarks/perf/bench_graphcore.py
    PYTHONPATH=src python benchmarks/perf/bench_graphcore.py --smoke

Writes ``BENCH_graphcore.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import time
from collections import deque
from typing import Callable, Dict, Hashable, List

import numpy as np

from repro import __version__
from repro.core.algorithms.greedy import greedy_fixed_funds
from repro.core.fees_paid import expected_fees
from repro.core.revenue import expected_revenue
from repro.core.utility import JoiningUserModel
from repro.network.betweenness import BetweennessResult, pair_weighted_betweenness
from repro.params import ModelParameters
from repro.snapshots import barabasi_albert_snapshot

FULL_SIZES = (100, 500, 1000)
# Smoke straddles SMALL_GRAPH_NODES so both the python fallback (100)
# and the vectorised CSR branch (200) are regression-guarded in CI.
SMOKE_SIZES = (100, 200)
SEED = 7


class ReferenceModel(JoiningUserModel):
    """The per-evaluation reference objective: apply the strategy to a copy
    of the graph, freeze its reduced view, and run the free functions.

    The optimisers score strategies through :meth:`objectives`, the
    closed-form batch kernel, so this class overrides it too and sends
    every strategy through the scalar methods below.
    """

    def objectives(self, strategies, kind="simplified"):
        values = []
        for strategy in strategies:
            fees = self.expected_fees(strategy)
            revenue = (
                -math.inf if math.isinf(fees) else self.expected_revenue(strategy)
            )
            values.append(self._combine(kind, strategy, revenue, fees))
        return values

    def _augmented(self, strategy):
        return self.with_strategy(strategy).view(
            directed=True, reduced=self.routing_amount
        )

    def expected_revenue(self, strategy):
        if self.revenue_mode == "fixed-rate":
            return super().expected_revenue(strategy)
        view = self._augmented(strategy)
        return expected_revenue(
            view, self.new_user, self._weights_on(view), self.params.fee_avg
        )

    def _weights_on(self, view):
        """``N_s * p_trans(s, r)`` on ``view``'s node order; the joining
        user sends and receives nothing."""
        index, table = self._view.node_index, self._pair_weights()
        return np.array([
            [
                table[index[s], index[r]] if s in index and r in index else 0.0
                for r in view.nodes
            ]
            for s in view.nodes
        ])

    def expected_fees(self, strategy):
        return expected_fees(
            self._augmented(strategy), self.new_user, self.own_probs,
            self.params.user_tx_rate, self.params.fee_out_avg,
            hop_convention=self.hop_convention,
        )


def _bfs_shortest_paths(graph, source):
    """Single-source BFS returning Brandes' bookkeeping.

    Returns ``(order, predecessors, sigma, dist)`` where ``order`` lists
    nodes in non-decreasing distance, ``sigma`` counts shortest paths.
    """
    sigma: Dict[Hashable, float] = {source: 1.0}
    dist: Dict[Hashable, int] = {source: 0}
    preds: Dict[Hashable, list] = {source: []}
    order = [source]
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0.0
                preds[w] = []
                order.append(w)
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma, dist


def dict_brandes(graph, sources=None) -> BetweennessResult:
    """The original dict-of-dict Brandes pass over an ``nx.DiGraph``,
    every pair weighted 1: the "old" side of the betweenness rows."""
    node_acc: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes}
    edge_acc: Dict[tuple, float] = {}
    if sources is None:
        sources = list(graph.nodes)
    for s in sources:
        if s not in graph:
            continue
        order, preds, sigma, _dist = _bfs_shortest_paths(graph, s)
        # Brandes' accumulation with the classic "+1" per reached target.
        delta: Dict[Hashable, float] = {v: 0.0 for v in order}
        for w in reversed(order):
            if w == s:
                continue
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                contribution = sigma[v] * coeff
                if contribution != 0.0:
                    edge_acc[(v, w)] = edge_acc.get((v, w), 0.0) + contribution
                    delta[v] += contribution
        for v in order:
            if v != s:
                node_acc[v] += delta[v]
    return BetweennessResult(node_acc, edge_acc)


def _time(fn: Callable[[], object], min_repeats: int, budget: float):
    """Best-of timing: repeat until ``budget`` seconds or ``min_repeats``."""
    times: List[float] = []
    result = None
    while len(times) < min_repeats or sum(times) < budget:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        if len(times) >= 50:
            break
    return min(times), len(times), result


def bench_betweenness(n: int, budget: float) -> Dict[str, object]:
    graph = barabasi_albert_snapshot(n, seed=SEED)
    view = graph.view(directed=True)
    digraph = view.to_networkx()
    old_seconds, old_reps, old_result = _time(
        lambda: dict_brandes(digraph), 3, budget
    )
    new_seconds, new_reps, new_result = _time(
        lambda: pair_weighted_betweenness(view), 3, budget
    )
    gap = max(
        abs(old_result.node[node] - new_result.node[node])
        for node in old_result.node
    )
    edge_gap = max(
        abs(old_result.edge.get(e, 0.0) - new_result.edge.get(e, 0.0))
        for e in set(old_result.edge) | set(new_result.edge)
    )
    return {
        "workload": "pair_weighted_betweenness",
        "n": n,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
        "repeats": {"old": old_reps, "new": new_reps},
        "parity_max_abs_gap": max(gap, edge_gap),
    }


def bench_greedy(n: int, budget: float) -> Dict[str, object]:
    graph = barabasi_albert_snapshot(n, seed=SEED)
    params = ModelParameters(
        onchain_cost=0.5, total_tx_rate=10.0 * n, user_tx_rate=5.0
    )

    def run(model_class):
        model = model_class(graph, "joiner", params, revenue_mode="fixed-rate")
        return greedy_fixed_funds(model, budget=3.0, lock=1.0)

    old_seconds, old_reps, old_result = _time(
        lambda: run(ReferenceModel), 1, budget
    )
    new_seconds, new_reps, new_result = _time(
        lambda: run(JoiningUserModel), 1, budget
    )
    return {
        "workload": "greedy_join",
        "n": n,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
        "repeats": {"old": old_reps, "new": new_reps},
        "parity_max_abs_gap": abs(
            old_result.objective_value - new_result.objective_value
        ),
        "strategies_identical": (
            old_result.strategy.actions == new_result.strategy.actions
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes only, minimal repeats (CI regression guard)",
    )
    parser.add_argument(
        "--output", default="BENCH_graphcore.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if any pair_weighted_betweenness speedup "
        "falls below this (CI regression guard for the view cache)",
    )
    args = parser.parse_args()
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    budget = 0.2 if args.smoke else 1.0

    results = []
    for n in sizes:
        for bench in (bench_betweenness, bench_greedy):
            row = bench(n, budget)
            results.append(row)
            print(
                f"{row['workload']:28s} n={row['n']:<5d} "
                f"old={row['old_seconds']*1e3:9.2f}ms "
                f"new={row['new_seconds']*1e3:9.2f}ms "
                f"speedup={row['speedup']:6.2f}x "
                f"gap={row['parity_max_abs_gap']:.2e}"
            )

    document = {
        "benchmark": "graphcore",
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

    if args.min_speedup is not None:
        slow = [
            row for row in results
            if row["workload"] == "pair_weighted_betweenness"
            and row["speedup"] < args.min_speedup
        ]
        if slow:
            raise SystemExit(
                f"speedup regression: {slow} below {args.min_speedup}x"
            )


if __name__ == "__main__":
    main()
