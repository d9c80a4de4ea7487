"""Unit tests for channel lifecycle cost realisation (Section II-C)."""

import numpy as np
import pytest

from repro.errors import InvalidParameter
from repro.network.lifecycle import (
    ChannelLifecycle,
    CloseMode,
    sample_close_mode,
)


class TestRealise:
    def test_opening_always_split(self):
        lifecycle = ChannelLifecycle(onchain_fee=2.0, seed=0)
        costs = lifecycle.realise(CloseMode.COOPERATIVE)
        assert costs.open_cost_u == costs.open_cost_v == 1.0

    def test_unilateral_u_pays_full_close(self):
        lifecycle = ChannelLifecycle(onchain_fee=2.0, seed=0)
        costs = lifecycle.realise(CloseMode.UNILATERAL_U)
        assert costs.close_cost_u == 2.0
        assert costs.close_cost_v == 0.0
        assert costs.total("u") == 3.0
        assert costs.total("v") == 1.0

    def test_cooperative_splits_close(self):
        lifecycle = ChannelLifecycle(onchain_fee=2.0, seed=0)
        costs = lifecycle.realise(CloseMode.COOPERATIVE)
        assert costs.close_cost_u == costs.close_cost_v == 1.0

    def test_total_rejects_unknown_party(self):
        lifecycle = ChannelLifecycle(onchain_fee=2.0, seed=0)
        with pytest.raises(InvalidParameter):
            lifecycle.realise(CloseMode.COOPERATIVE).total("w")

    def test_negative_fee_rejected(self):
        with pytest.raises(InvalidParameter):
            ChannelLifecycle(onchain_fee=-1.0)


class TestExpectation:
    """The Section II-C claim: expected lifecycle cost is C per party."""

    def test_monte_carlo_converges_to_c(self):
        fee, samples = 2.0, 6000
        lifecycle = ChannelLifecycle(onchain_fee=fee, seed=42)
        realised = [lifecycle.realise() for _ in range(samples)]
        mean_u = sum(costs.total("u") for costs in realised) / samples
        mean_v = sum(costs.total("v") for costs in realised) / samples
        assert mean_u == pytest.approx(fee, rel=0.05)
        assert mean_v == pytest.approx(fee, rel=0.05)

    def test_modes_uniform(self):
        rng = np.random.default_rng(7)
        counts = {mode: 0 for mode in CloseMode}
        n = 3000
        for _ in range(n):
            counts[sample_close_mode(rng)] += 1
        for mode in CloseMode:
            assert counts[mode] / n == pytest.approx(1 / 3, abs=0.05)
