"""End-to-end pipeline: generate -> estimate -> join -> simulate.

The complete downstream-user story: start from a snapshot, estimate the
model parameters from observed traffic, use them to choose a joining
strategy, and run the network under HTLC semantics.
"""

import pytest

from repro.analysis.estimation import estimate_total_rate, estimate_zipf_s
from repro.core.algorithms.greedy import greedy_fixed_funds
from repro.core.utility import JoiningUserModel
from repro.network.fees import ConstantFee
from repro.params import ModelParameters
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.snapshots.io import from_describegraph, to_describegraph
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.workload import PoissonWorkload
from repro.transactions.zipf import ModifiedZipf


@pytest.fixture(scope="module")
def pipeline_result():
    # 1. snapshot (round-tripped through the JSON format, as a user would)
    raw = barabasi_albert_snapshot(
        18, seed=12, capacity_mu=5.0, capacity_sigma=0.3
    )
    graph = from_describegraph(to_describegraph(raw))

    # 2. observe traffic, estimate parameters
    true_s = 1.2
    observed = PoissonWorkload(
        ModifiedZipf(graph, s=true_s), {v: 1.0 for v in graph.nodes}, seed=13
    )
    trace = observed.generate_count(1200)
    s_hat = estimate_zipf_s(graph, trace).s
    rate_hat = estimate_total_rate(trace, trace[-1].time).rate

    # 3. choose a joining strategy with the *estimated* parameters
    params = ModelParameters(
        onchain_cost=0.5,
        opportunity_rate=0.005,
        fee_avg=0.2,
        fee_out_avg=0.05,
        total_tx_rate=rate_hat,
        user_tx_rate=1.0,
        zipf_s=s_hat,
    )
    model = JoiningUserModel(graph, "newcomer", params)
    result = greedy_fixed_funds(model, budget=8.0, lock=3.0)

    # 4. run the joined network under HTLC semantics
    joined = model.with_strategy(result.strategy)
    workload = PoissonWorkload(
        ModifiedZipf(joined, s=s_hat),
        {v: 1.0 for v in joined.nodes},
        seed=14,
    )
    engine = BatchedSimulationEngine(
        joined, fee=ConstantFee(params.fee_avg), payment_mode="htlc",
        seed=14, htlc_hold_mean=0.02,
    )
    engine.schedule_workload(workload, horizon=120.0)
    metrics = engine.run()
    return {
        "true_s": true_s,
        "s_hat": s_hat,
        "rate_hat": rate_hat,
        "strategy": result.strategy,
        "metrics": metrics,
        "joined": joined,
    }


class TestFullPipeline:
    def test_estimation_close_to_truth(self, pipeline_result):
        assert pipeline_result["s_hat"] == pytest.approx(
            pipeline_result["true_s"], abs=0.5
        )
        assert pipeline_result["rate_hat"] == pytest.approx(18.0, rel=0.15)

    def test_strategy_connects_newcomer(self, pipeline_result):
        strategy = pipeline_result["strategy"]
        assert len(strategy) >= 1
        joined = pipeline_result["joined"]
        assert joined.degree("newcomer") == len(strategy)

    def test_simulation_processes_traffic(self, pipeline_result):
        metrics = pipeline_result["metrics"]
        assert metrics.attempted > 100
        resolved = metrics.succeeded + metrics.failed
        assert metrics.succeeded / resolved > 0.5

    def test_newcomer_earns_or_at_least_participates(self, pipeline_result):
        metrics = pipeline_result["metrics"]
        newcomer_touched = (
            metrics.revenue.get("newcomer", 0.0) > 0
            or metrics.sent.get("newcomer", 0) > 0
            or metrics.received.get("newcomer", 0) > 0
        )
        assert newcomer_touched
