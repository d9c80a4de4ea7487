"""Unit tests for the closed-form Thm 8/9 conditions."""


import pytest

from repro.equilibrium.conditions import (
    harmonic,
    hub_diameter_bound,
    star_ne_closed_form,
    star_ne_conditions,
    star_ne_sufficient_thm9,
)
from repro.errors import InvalidParameter


class TestHarmonic:
    def test_s_one(self):
        assert harmonic(4, 1.0) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_s_zero_is_n(self):
        assert harmonic(7, 0.0) == pytest.approx(7.0)

    def test_s_two_bounded_by_two(self):
        """Used in Thm 9's proof: H^s_n <= 2 for s >= 2."""
        for n in [2, 10, 100, 1000]:
            assert harmonic(n, 2.0) <= 2.0

    def test_empty(self):
        assert harmonic(0, 1.0) == 0.0

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidParameter):
            harmonic(-1, 1.0)


class TestTheorem8Conditions:
    def test_holds_with_generous_edge_cost(self):
        assert star_ne_closed_form(n=6, s=2.0, a=0.1, b=0.1, l=1.0)

    def test_fails_with_tiny_edge_cost_high_traffic(self):
        assert not star_ne_closed_form(n=6, s=0.5, a=5.0, b=5.0, l=0.01)

    def test_condition1_binding_for_large_a(self):
        # huge a with s=0: condition 1 is a/H <= l
        conditions = star_ne_conditions(n=5, s=0.0, a=100.0, b=0.0, l=1.0)
        assert conditions.condition1_margin < 0

    def test_margins_structure(self):
        conditions = star_ne_conditions(n=6, s=1.0, a=0.5, b=0.5, l=1.0)
        assert len(conditions.condition2_margins) == 4  # i = 2..5
        assert len(conditions.condition3_margins) == 4

    def test_rejects_tiny_star(self):
        with pytest.raises(InvalidParameter):
            star_ne_conditions(n=1, s=1.0, a=1.0, b=1.0, l=1.0)

    def test_monotone_in_l(self):
        """Larger edge cost can only help the star stay a NE."""
        point = dict(n=8, s=1.5, a=1.0, b=1.0)
        held = [
            star_ne_closed_form(l=l, **point) for l in [0.01, 0.1, 1.0, 10.0]
        ]
        # once it holds it keeps holding as l grows
        first_true = held.index(True) if True in held else len(held)
        assert all(held[first_true:])


class TestTheorem9Sufficiency:
    def test_thm9_implies_thm8(self):
        """Whenever Thm 9's premise holds, Thm 8's conditions must hold."""
        for n in [2, 3, 5, 8, 12]:
            for s in [2.0, 2.5, 3.0]:
                h = harmonic(n, s)
                a = b = 0.99 * h  # a/H = b/H = 0.99 <= l = 1
                if star_ne_sufficient_thm9(n, s, a, b, 1.0):
                    assert star_ne_closed_form(n, s, a, b, 1.0), (n, s)

    def test_requires_s_at_least_two(self):
        assert not star_ne_sufficient_thm9(5, 1.9, 0.1, 0.1, 1.0)

    def test_requires_bounded_traffic(self):
        h = harmonic(5, 2.0)
        assert not star_ne_sufficient_thm9(5, 2.0, 2.0 * h, 0.1, 1.0)


class TestTheorem6Bound:
    def test_formula(self):
        bound = hub_diameter_bound(
            onchain_cost=2.0, epsilon=0.0, lambda_e=0.0, fee=1.0,
            p_min=0.1, total_tx_rate=10.0,
        )
        # 2 * (1 - 0) / (0.1 * 10 * 1) + 1 = 3
        assert bound == pytest.approx(3.0)

    def test_higher_traffic_tightens(self):
        loose = hub_diameter_bound(2.0, 0.0, 0.0, 1.0, 0.1, 5.0)
        tight = hub_diameter_bound(2.0, 0.0, 0.0, 1.0, 0.1, 50.0)
        assert tight < loose

    def test_revenue_tightens(self):
        without = hub_diameter_bound(2.0, 0.0, 0.0, 1.0, 0.1, 10.0)
        with_rev = hub_diameter_bound(2.0, 0.0, 0.5, 1.0, 0.1, 10.0)
        assert with_rev < without

    def test_rejects_zero_denominator(self):
        with pytest.raises(InvalidParameter):
            hub_diameter_bound(2.0, 0.0, 0.0, 1.0, 0.0, 10.0)
