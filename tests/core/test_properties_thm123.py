"""Tests reproducing Theorems 1-3 (objective-function properties).

Thm 1: U is submodular. Thm 2: U' is monotone, U is not. Thm 3: U can be
negative. We verify each claim empirically on randomised instances — this
is the test-level counterpart of bench E3.
"""

import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.core.properties import (
    check_monotonicity,
    check_submodularity,
    find_negative_utility_example,
)
from repro.core.strategy import ActionSpace
from repro.core.utility import JoiningUserModel
from repro.params import ModelParameters
from repro.snapshots.synthetic import barabasi_albert_snapshot


@pytest.fixture(scope="module")
def instance():
    """Model under the paper's fixed-λ assumption (Thm 1-5 regime)."""
    graph = barabasi_albert_snapshot(14, attachments=2, seed=9)
    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.1,
        fee_avg=0.3,
        fee_out_avg=0.2,
        total_tx_rate=50.0,
        user_tx_rate=5.0,
        zipf_s=1.0,
    )
    model = JoiningUserModel(graph, "u", params, revenue_mode="fixed-rate")
    omega = ActionSpace.fixed_lock(graph, "u", 1.0)[:8]
    return model, omega


class TestTheorem1Submodularity:
    def test_simplified_utility_submodular(self, instance):
        model, omega = instance
        evaluator = ObjectiveEvaluator(model, kind="simplified")
        report = check_submodularity(evaluator, omega, trials=120, seed=0)
        assert report.violations == 0, f"gap {report.worst_gap}"

    def test_full_utility_submodular(self, instance):
        model, omega = instance
        evaluator = ObjectiveEvaluator(model, kind="utility")
        report = check_submodularity(evaluator, omega, trials=120, seed=1)
        assert report.violations == 0

    def test_benefit_submodular(self, instance):
        model, omega = instance
        evaluator = ObjectiveEvaluator(model, kind="benefit")
        report = check_submodularity(evaluator, omega, trials=120, seed=2)
        assert report.violations == 0


class TestTheorem2Monotonicity:
    def test_simplified_utility_monotone(self, instance):
        model, omega = instance
        evaluator = ObjectiveEvaluator(model, kind="simplified")
        ran, violations = check_monotonicity(evaluator, omega, trials=120, seed=3)
        assert ran > 0
        assert violations == 0

    def test_full_utility_not_monotone(self, instance):
        """With expensive channels, adding one can lower U (Thm 2)."""
        model, omega = instance
        expensive = ModelParameters(
            onchain_cost=5.0,
            opportunity_rate=1.0,
            fee_avg=0.01,
            fee_out_avg=0.01,
            total_tx_rate=10.0,
            user_tx_rate=1.0,
            zipf_s=1.0,
        )
        pricey_model = JoiningUserModel(model.base_graph, "u2", expensive)
        evaluator = ObjectiveEvaluator(pricey_model, kind="utility")
        ran, violations = check_monotonicity(evaluator, omega, trials=120, seed=4)
        assert violations > 0


class TestExactRevenueDeviation:
    """Documented deviation: with *exact* betweenness revenue (the default
    ``revenue_mode="betweenness"``), submodularity fails — one channel earns
    nothing, a second suddenly creates transit, so the marginal revenue of
    the second channel jumps. The paper's Thm 1 avoids this by assuming
    λ_xy is a fixed value; see DESIGN.md and bench E3."""

    def test_betweenness_revenue_violates_submodularity(self, instance):
        model, omega = instance
        exact_model = JoiningUserModel(
            model.base_graph, "u9", model.params, revenue_mode="betweenness"
        )
        evaluator = ObjectiveEvaluator(exact_model, kind="simplified")
        report = check_submodularity(evaluator, omega, trials=150, seed=0)
        assert report.violations > 0  # violations exist by construction


class TestTheorem3Negativity:
    def test_negative_utility_exists(self, instance):
        model, omega = instance
        expensive = ModelParameters(
            onchain_cost=10.0,
            opportunity_rate=1.0,
            fee_avg=0.01,
            fee_out_avg=0.5,
            total_tx_rate=10.0,
            user_tx_rate=5.0,
            zipf_s=1.0,
        )
        pricey_model = JoiningUserModel(model.base_graph, "u3", expensive)
        evaluator = ObjectiveEvaluator(pricey_model, kind="utility")
        witness = find_negative_utility_example(
            evaluator, omega, trials=60, seed=5
        )
        assert witness is not None
        assert evaluator(witness) < 0
