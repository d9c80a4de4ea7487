"""Unit tests for :mod:`repro.network.fees`."""

import pytest

from repro.errors import InvalidParameter
from repro.network.fees import ConstantFee, LinearFee, PiecewiseLinearFee


class TestConstantFee:
    def test_value(self):
        assert ConstantFee(0.3)(100.0) == 0.3

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            ConstantFee(-0.1)


class TestLinearFee:
    def test_base_plus_rate(self):
        fee = LinearFee(base=0.1, rate=0.01)
        assert fee(10.0) == pytest.approx(0.2)

    def test_zero_amount_gives_base(self):
        assert LinearFee(0.1, 0.5)(0.0) == pytest.approx(0.1)

    def test_rejects_negative_amount(self):
        with pytest.raises(InvalidParameter):
            LinearFee(0.1, 0.1)(-5.0)

    def test_rejects_negative_params(self):
        with pytest.raises(InvalidParameter):
            LinearFee(-0.1, 0.1)


class TestPiecewiseLinearFee:
    def test_interpolates(self):
        fee = PiecewiseLinearFee([(0.0, 0.0), (10.0, 1.0)])
        assert fee(5.0) == pytest.approx(0.5)

    def test_clamps_outside_range(self):
        fee = PiecewiseLinearFee([(1.0, 0.2), (2.0, 0.4)])
        assert fee(0.0) == pytest.approx(0.2)
        assert fee(5.0) == pytest.approx(0.4)

    def test_needs_two_knots(self):
        with pytest.raises(InvalidParameter):
            PiecewiseLinearFee([(0.0, 0.1)])

    def test_rejects_unsorted_knots(self):
        with pytest.raises(InvalidParameter):
            PiecewiseLinearFee([(1.0, 0.1), (1.0, 0.2)])

    def test_rejects_negative_fees(self):
        with pytest.raises(InvalidParameter):
            PiecewiseLinearFee([(0.0, -0.1), (1.0, 0.2)])

