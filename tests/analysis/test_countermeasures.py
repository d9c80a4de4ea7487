"""countermeasure_table: upfront fees price jamming without changing it.

The table's two claims, checked end to end on small sweeps:

* *damage invariance* — the upfront charge is ledger-only, so the
  victim's revenue loss is identical under every policy;
* *ROI monotonicity* — attacker cost grows with the upfront rate, so
  attacker ROI falls strictly along the rate axis.
"""

import pytest

from repro.analysis.countermeasures import (
    TABLE_COLUMNS,
    countermeasure_table,
    fee_policy_docs,
)
from repro.errors import ScenarioError

RATES = [0.02, 0.05]
SWEEP_KWARGS = dict(budget=200.0, size=5, horizon=10.0, seed=7)


@pytest.fixture(scope="module")
def table():
    return countermeasure_table(RATES, **SWEEP_KWARGS)


class TestFeePolicyDocs:
    def test_success_only_baseline_prepended(self):
        docs = fee_policy_docs([0.05])
        assert len(docs) == 2
        assert docs[0]["upfront_rate"] == 0.0
        assert docs[1]["upfront_rate"] == 0.05

    def test_success_side_shared_across_docs(self):
        docs = fee_policy_docs([0.02, 0.05], fee_base=0.1, fee_rate=0.01)
        assert all(
            doc["params"] == {"base": 0.1, "rate": 0.01} for doc in docs
        )

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ScenarioError, match="> 0"):
            fee_policy_docs([0.0, 0.05])

    def test_non_increasing_rates_rejected(self):
        with pytest.raises(ScenarioError, match="strictly increasing"):
            fee_policy_docs([0.05, 0.02])


class TestCountermeasureTable:
    def test_grid_shape_and_columns(self, table):
        # 3 topologies x (1 success-only + 2 upfront rates)
        assert len(table) == 9
        assert all(tuple(row) == TABLE_COLUMNS for row in table)
        assert {row["topology"] for row in table} == {
            "star", "path", "circle"
        }

    def test_policy_labels(self, table):
        for row in table:
            expected = "upfront" if row["upfront_rate"] > 0 else "success-only"
            assert row["fee_policy"] == expected

    def test_damage_invariant_across_policies(self, table):
        for topology in ("star", "path", "circle"):
            rows = [r for r in table if r["topology"] == topology]
            deltas = {r["victim_revenue_delta"] for r in rows}
            assert len(deltas) == 1, (
                f"{topology}: upfront fees changed the attack's damage"
            )
            assert len({r["attacked_success_rate"] for r in rows}) == 1

    def test_attacker_roi_strictly_decreasing_in_rate(self, table):
        for topology in ("star", "path", "circle"):
            rows = sorted(
                (r for r in table if r["topology"] == topology),
                key=lambda r: r["upfront_rate"],
            )
            rois = [r["attacker_roi"] for r in rows]
            assert all(a > b for a, b in zip(rois, rois[1:])), (
                f"{topology}: ROI not strictly decreasing: {rois}"
            )

    def test_upfront_rows_record_the_attacker_bill(self, table):
        for row in table:
            if row["fee_policy"] == "upfront":
                assert row["attacker_upfront_paid"] > 0
            else:
                assert row["attacker_upfront_paid"] == 0.0

    def test_cache_round_trip_is_identical(self, tmp_path):
        store = tmp_path / "store"
        first = countermeasure_table(RATES, cache=store, **SWEEP_KWARGS)
        second = countermeasure_table(RATES, cache=store, **SWEEP_KWARGS)
        assert first == second
