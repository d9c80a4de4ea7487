"""Unit tests for transaction-size distributions."""

import math

import numpy as np
import pytest

from repro.errors import InvalidParameter
from repro.transactions.sizes import (
    FixedSize,
    TruncatedExponentialSizes,
    UniformSizes,
)


def sample_mean(dist, seed=0, n=20000):
    return float(dist.sample(np.random.default_rng(seed), n).mean())


class TestUniformSizes:
    def test_mean(self):
        assert sample_mean(UniformSizes(high=10.0)) == pytest.approx(5.0, rel=0.02)

    def test_mean_with_offset(self):
        assert sample_mean(UniformSizes(low=2.0, high=4.0)) == pytest.approx(
            3.0, rel=0.02
        )

    def test_samples_in_support(self):
        dist = UniformSizes(low=1.0, high=3.0)
        samples = dist.sample(np.random.default_rng(0), 500)
        assert samples.min() >= 1.0
        assert samples.max() <= 3.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(InvalidParameter):
            UniformSizes(high=1.0, low=1.0)


class TestTruncatedExponential:
    def test_samples_within_truncation(self):
        dist = TruncatedExponentialSizes(scale=2.0, high=3.0)
        samples = dist.sample(np.random.default_rng(1), 2000)
        assert samples.min() >= 0.0
        assert samples.max() <= 3.0

    def test_sample_mean_matches_analytic(self):
        scale, high = 1.0, 10.0
        dist = TruncatedExponentialSizes(scale=scale, high=high)
        tail = math.exp(-high / scale)
        analytic = scale - high * tail / (1.0 - tail)
        assert sample_mean(dist, seed=2) == pytest.approx(analytic, rel=0.05)

    def test_skews_small(self):
        dist = TruncatedExponentialSizes(scale=0.5, high=5.0)
        assert sample_mean(dist) < 2.5  # well below the uniform mean

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParameter):
            TruncatedExponentialSizes(scale=0.0, high=1.0)
        with pytest.raises(InvalidParameter):
            TruncatedExponentialSizes(scale=1.0, high=0.0)


class TestFixedSize:
    def test_samples_exact(self):
        dist = FixedSize(2.5)
        samples = dist.sample(np.random.default_rng(3), 10)
        assert np.all(samples == 2.5)

    def test_mean_exact(self):
        assert sample_mean(FixedSize(4.0), n=50) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            FixedSize(0.0)
