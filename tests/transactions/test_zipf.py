"""Unit tests for the modified Zipf distribution (Section II-B)."""

import pytest

from repro.errors import InvalidParameter, NodeNotFound
from repro.network.graph import ChannelGraph
from repro.transactions.zipf import ModifiedZipf


@pytest.fixture
def star5() -> ChannelGraph:
    return ChannelGraph.from_edges(
        [("hub", f"leaf{i}") for i in range(5)], balance=1.0
    )


class TestProbabilities:
    def test_rows_normalised(self, star5):
        zipf = ModifiedZipf(star5, s=1.3)
        for sender in star5.nodes:
            row = zipf.receivers(sender)
            assert sum(row.values()) == pytest.approx(1.0)

    def test_self_probability_zero(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        assert zipf.probability("hub", "hub") == 0.0

    def test_hub_most_likely_receiver(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        row = zipf.receivers("leaf0")
        assert row["hub"] == max(row.values())

    def test_equal_degree_equal_probability(self, star5):
        zipf = ModifiedZipf(star5, s=1.7)
        row = zipf.receivers("leaf0")
        leaf_probs = {v: p for v, p in row.items() if v.startswith("leaf")}
        assert len(set(round(p, 12) for p in leaf_probs.values())) == 1

    def test_s_zero_is_uniform(self, star5):
        zipf = ModifiedZipf(star5, s=0.0)
        row = zipf.receivers("leaf0")
        assert all(p == pytest.approx(1.0 / 5.0) for p in row.values())

    def test_large_s_concentrates_on_hub(self, star5):
        zipf = ModifiedZipf(star5, s=10.0)
        row = zipf.receivers("leaf0")
        assert row["hub"] > 0.99

    def test_unknown_sender(self, star5):
        with pytest.raises(NodeNotFound):
            ModifiedZipf(star5).receivers("ghost")

    def test_unknown_receiver_zero(self, star5):
        assert ModifiedZipf(star5).probability("leaf0", "ghost") == 0.0

    def test_negative_s_rejected_at_construction(self, star5):
        with pytest.raises(InvalidParameter, match=r"Zipf parameter s must be >= 0, got -1"):
            ModifiedZipf(star5, s=-1)


class TestCaching:
    def test_cache_returns_copies(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        row = zipf.receivers("leaf0")
        row["hub"] = 999.0
        assert zipf.receivers("leaf0")["hub"] != 999.0

    def test_new_instance_sees_mutation(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        before = zipf.receivers("leaf0")["leaf1"]
        # leaf1 gains degree: its probability rises in a new instance
        star5.add_channel("leaf1", "leaf2", 1.0, 1.0)
        assert zipf.receivers("leaf0")["leaf1"] == before
        after = ModifiedZipf(star5, s=1.0).receivers("leaf0")["leaf1"]
        assert after > before


class TestSampling:
    def test_sample_receiver_respects_support(self, star5):
        import numpy as np

        zipf = ModifiedZipf(star5, s=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            receiver = zipf.sample_receiver("leaf0", rng)
            assert receiver != "leaf0"
            assert receiver in star5

    def test_sample_distribution_close_to_probabilities(self, star5):
        import numpy as np

        zipf = ModifiedZipf(star5, s=1.0)
        rng = np.random.default_rng(42)
        counts = {}
        n = 4000
        for _ in range(n):
            receiver = zipf.sample_receiver("leaf0", rng)
            counts[receiver] = counts.get(receiver, 0) + 1
        expected = zipf.receivers("leaf0")
        for node, p in expected.items():
            assert counts.get(node, 0) / n == pytest.approx(p, abs=0.03)
