"""Unit tests for the Poisson workload generator."""

import pytest

from repro.errors import InvalidParameter
from repro.transactions.distributions import (
    EmpiricalDistribution,
    UniformDistribution,
)
from repro.transactions.sizes import UniformSizes
from repro.transactions.workload import PoissonWorkload


@pytest.fixture
def simple_workload() -> PoissonWorkload:
    dist = UniformDistribution(["a", "b", "c"])
    return PoissonWorkload(dist, {"a": 1.0, "b": 1.0, "c": 1.0}, seed=0)


class TestGeneration:
    def test_times_increasing_within_horizon(self, simple_workload):
        txs = list(simple_workload.generate(10.0))
        times = [tx.time for tx in txs]
        assert times == sorted(times)
        assert all(0 < t < 10.0 for t in times)

    def test_count_generation(self, simple_workload):
        txs = simple_workload.generate_count(25)
        assert len(txs) == 25

    def test_sender_never_receiver(self, simple_workload):
        for tx in simple_workload.generate_count(200):
            assert tx.sender != tx.receiver

    def test_default_size_one(self, simple_workload):
        assert all(
            tx.amount == 1.0 for tx in simple_workload.generate_count(10)
        )

    def test_custom_sizes(self):
        dist = UniformDistribution(["a", "b"])
        workload = PoissonWorkload(
            dist, {"a": 1.0, "b": 1.0}, sizes=UniformSizes(low=2.0, high=3.0),
            seed=1,
        )
        for tx in workload.generate_count(50):
            assert 2.0 <= tx.amount <= 3.0

    def test_seed_reproducible(self):
        dist = UniformDistribution(["a", "b", "c"])
        make = lambda: PoissonWorkload(
            dist, {"a": 1.0, "b": 2.0, "c": 0.5}, seed=42
        ).generate_count(30)
        assert make() == make()

    def test_rejects_bad_horizon(self, simple_workload):
        with pytest.raises(InvalidParameter):
            list(simple_workload.generate(0.0))

    def test_rejects_all_zero_rates(self):
        dist = UniformDistribution(["a", "b"])
        with pytest.raises(InvalidParameter):
            PoissonWorkload(dist, {"a": 0.0, "b": 0.0})


class TestStatistics:
    def test_arrival_rate_matches_total(self):
        dist = UniformDistribution(["a", "b"])
        workload = PoissonWorkload(dist, {"a": 3.0, "b": 2.0}, seed=7)
        txs = list(workload.generate(200.0))
        observed_rate = len(txs) / 200.0
        assert observed_rate == pytest.approx(5.0, rel=0.1)

    def test_sender_rates_respected(self):
        dist = UniformDistribution(["a", "b"])
        workload = PoissonWorkload(dist, {"a": 9.0, "b": 1.0}, seed=11)
        txs = workload.generate_count(3000)
        share_a = sum(1 for tx in txs if tx.sender == "a") / len(txs)
        assert share_a == pytest.approx(0.9, abs=0.03)

    def test_zero_rate_sender_never_sends(self):
        dist = UniformDistribution(["a", "b", "c"])
        workload = PoissonWorkload(
            dist, {"a": 1.0, "b": 0.0, "c": 1.0}, seed=3
        )
        assert all(tx.sender != "b" for tx in workload.generate_count(300))

    def test_receiver_distribution_respected(self):
        dist = EmpiricalDistribution({"a": {"b": 4.0, "c": 1.0}})
        workload = PoissonWorkload(dist, {"a": 1.0}, seed=5)
        receivers = [tx.receiver for tx in workload.generate_count(2000)]
        share_b = receivers.count("b") / len(receivers)
        assert share_b == pytest.approx(0.8, abs=0.04)
