"""Unit tests for parameter estimation (future-work item 3)."""

import pytest

from repro.analysis.estimation import estimate_sender_rates, estimate_zipf_s
from repro.errors import InvalidParameter
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.workload import PoissonWorkload, Transaction
from repro.transactions.zipf import ModifiedZipf


class TestRateEstimation:
    def test_rates_recovered_within_ci(self):
        graph = barabasi_albert_snapshot(10, seed=1)
        true_rates = {v: 0.5 + 0.1 * i for i, v in enumerate(graph.nodes)}
        workload = PoissonWorkload(
            ModifiedZipf(graph, s=1.0), true_rates, seed=2
        )
        horizon = 400.0
        trace = list(workload.generate(horizon))
        estimates = estimate_sender_rates(trace, horizon)
        hits = sum(
            estimates[v].contains(true_rates[v])
            for v in estimates
        )
        assert hits >= 0.85 * len(estimates)

    def test_total_rate(self):
        trace = [
            Transaction(time=t, sender="a", receiver="b", amount=1.0)
            for t in range(50)
        ]
        estimate = estimate_sender_rates(trace, horizon=50.0)["a"]
        assert estimate.rate == pytest.approx(1.0)
        assert estimate.ci_low < 1.0 < estimate.ci_high

    def test_ci_narrow_with_more_data(self):
        small = estimate_sender_rates(
            [Transaction(t, "a", "b", 1.0) for t in range(10)], 10.0
        )["a"]
        large = estimate_sender_rates(
            [Transaction(t, "a", "b", 1.0) for t in range(1000)], 1000.0
        )["a"]
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            estimate_sender_rates([], horizon=0.0)
        with pytest.raises(InvalidParameter):
            estimate_sender_rates([], horizon=1.0, confidence=1.5)


class TestZipfEstimation:
    @pytest.mark.parametrize("true_s", [0.5, 1.5, 3.0])
    def test_recovers_s(self, true_s):
        graph = barabasi_albert_snapshot(12, seed=3)
        workload = PoissonWorkload(
            ModifiedZipf(graph, s=true_s),
            {v: 1.0 for v in graph.nodes},
            seed=4,
        )
        trace = workload.generate_count(1500)
        estimate = estimate_zipf_s(graph, trace)
        assert estimate.s == pytest.approx(true_s, abs=0.45)
        assert estimate.samples == 1500

    def test_s_zero_uniform_traffic(self):
        graph = barabasi_albert_snapshot(10, seed=5)
        workload = PoissonWorkload(
            ModifiedZipf(graph, s=0.0), {v: 1.0 for v in graph.nodes}, seed=6
        )
        trace = workload.generate_count(1200)
        estimate = estimate_zipf_s(graph, trace)
        assert estimate.s < 0.5

    def test_empty_trace_rejected(self):
        graph = barabasi_albert_snapshot(10, seed=7)
        with pytest.raises(InvalidParameter):
            estimate_zipf_s(graph, [])

