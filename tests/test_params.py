"""Unit tests for :mod:`repro.params`."""

import dataclasses

import pytest

from repro.errors import InvalidParameter
from repro.params import DEFAULT_PARAMS, ModelParameters


class TestValidation:
    def test_defaults_valid(self):
        params = ModelParameters()
        assert params.onchain_cost > 0

    @pytest.mark.parametrize(
        "field",
        [
            "onchain_cost",
            "total_tx_rate",
            "user_tx_rate",
            "max_tx_size",
        ],
    )
    def test_positive_fields_reject_zero(self, field):
        with pytest.raises(InvalidParameter):
            ModelParameters(**{field: 0.0})

    @pytest.mark.parametrize(
        "field",
        ["opportunity_rate", "zipf_s", "epsilon", "fee_avg", "fee_out_avg"],
    )
    def test_non_negative_fields_reject_negative(self, field):
        with pytest.raises(InvalidParameter):
            ModelParameters(**{field: -0.1})

    @pytest.mark.parametrize(
        "field",
        ["opportunity_rate", "zipf_s", "epsilon", "fee_avg", "fee_out_avg"],
    )
    def test_non_negative_fields_accept_zero(self, field):
        params = ModelParameters(**{field: 0.0})
        assert getattr(params, field) == 0.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_PARAMS.onchain_cost = 2.0


class TestDerivedQuantities:
    def test_channel_cost_is_c_plus_rl(self):
        params = ModelParameters(onchain_cost=2.0, opportunity_rate=0.1)
        assert params.channel_cost(10.0) == pytest.approx(2.0 + 1.0)

    def test_channel_cost_zero_lock(self):
        params = ModelParameters(onchain_cost=2.0, opportunity_rate=0.1)
        assert params.channel_cost(0.0) == pytest.approx(2.0)

    def test_channel_cost_rejects_negative_lock(self):
        with pytest.raises(InvalidParameter):
            ModelParameters().channel_cost(-1.0)

    def test_onchain_alternative_cost(self):
        params = ModelParameters(user_tx_rate=10.0, onchain_cost=3.0)
        assert params.onchain_alternative_cost() == pytest.approx(15.0)

    def test_replace_creates_validated_copy(self):
        params = ModelParameters().replace(fee_avg=0.7)
        assert params.fee_avg == 0.7
        assert DEFAULT_PARAMS.fee_avg != 0.7

    def test_replace_rejects_invalid(self):
        with pytest.raises(InvalidParameter):
            ModelParameters().replace(fee_avg=-1.0)

    def test_as_dict_round_trip(self):
        params = ModelParameters(zipf_s=1.5)
        rebuilt = ModelParameters(**dataclasses.asdict(params))
        assert rebuilt == params
