"""Exact-equality tests for the cached receiver sampling tables.

``sample_receiver`` promises the receiver ``Generator.choice(len(row),
p=row)`` would draw from the same stream, one ``random()`` per call. The
reference below is that ``choice`` call over the row :meth:`receivers`
returns, so any drift in the table's float operations or RNG use fails.
"""

import numpy as np
import pytest

from repro.network.graph import ChannelGraph
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.distributions import (
    EmpiricalDistribution,
    UniformDistribution,
)
from repro.transactions.ranking import degree_ranking
from repro.transactions.zipf import ModifiedZipf


def choice_draws(distribution, sender, seed, count):
    """Receivers drawn by ``Generator.choice(p=...)`` over the row."""
    rng = np.random.default_rng(seed)
    row = distribution.receivers(sender)
    nodes = list(row)
    probs = np.fromiter(row.values(), dtype=float, count=len(nodes))
    probs /= probs.sum()
    out = []
    for _ in range(count):
        rng.exponential(0.5)
        out.append(nodes[rng.choice(len(nodes), p=probs)])
    return out, rng.bit_generator.state


def sampled_draws(distribution, sender, seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        rng.exponential(0.5)
        out.append(distribution.sample_receiver(sender, rng))
    return out, rng.bit_generator.state


@pytest.fixture
def star5() -> ChannelGraph:
    return ChannelGraph.from_edges(
        [("hub", f"leaf{i}") for i in range(5)], balance=1.0
    )


@pytest.fixture(scope="module")
def ba60() -> ChannelGraph:
    return barabasi_albert_snapshot(60, seed=5)


class TestMatchesChoice:
    def test_uniform(self):
        dist = UniformDistribution([f"v{i}" for i in range(7)])
        for sender in ("v0", "v3"):
            assert sampled_draws(dist, sender, 3, 2000) == choice_draws(
                dist, sender, 3, 2000
            )

    def test_empirical(self):
        dist = EmpiricalDistribution(
            {"a": {"b": 0.1, "c": 2.5, "d": 1e-9, "e": 7.0}, "b": {"a": 1.0}}
        )
        for sender in ("a", "b"):
            assert sampled_draws(dist, sender, 9, 2000) == choice_draws(
                dist, sender, 9, 2000
            )

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.3])
    def test_modified_zipf(self, ba60, s):
        dist = ModifiedZipf(ba60, s=s)
        for sender in ba60.nodes[::7]:
            assert sampled_draws(dist, sender, 17, 500) == choice_draws(
                dist, sender, 17, 500
            )


def brute_force_degrees(graph, perspective):
    """In-degree of every node in ``G - perspective``, channel by channel."""
    return {
        node: sum(
            1
            for channel in graph.channels
            if node in channel.endpoints and perspective not in channel.endpoints
        )
        for node in graph.nodes
        if node != perspective
    }


class TestDegreeRanking:
    @pytest.fixture
    def multigraph(self) -> ChannelGraph:
        graph = ChannelGraph()
        for u, v in [("a", "b"), ("a", "b"), ("a", "c"), ("b", "c"),
                     ("c", "d"), ("c", "d"), ("c", "d"), ("d", "e")]:
            graph.add_channel(u, v, 1.0, 1.0)
        graph.add_node("lonely")
        return graph

    def test_matches_brute_force(self, multigraph):
        for perspective in (None, *multigraph.nodes):
            ranked = degree_ranking(multigraph, perspective)
            expected = brute_force_degrees(multigraph, perspective)
            assert dict(ranked) == expected
            assert ranked == sorted(
                expected.items(), key=lambda kv: (-kv[1], str(kv[0]))
            )

    def test_parallel_channels_each_count(self, multigraph):
        assert dict(degree_ranking(multigraph))["d"] == 4
        assert dict(degree_ranking(multigraph, "c"))["d"] == 1

    def test_isolated_node_ranks_last_with_zero(self, multigraph):
        assert degree_ranking(multigraph)[-1] == ("lonely", 0)
        assert degree_ranking(multigraph, "lonely")[0] == ("c", 5)


class TestInvalidation:
    def test_invalidate_rebuilds_rows_and_table(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        sampled_draws(zipf, "leaf0", 1, 50)  # builds the cached table
        old_row = zipf.receivers("leaf0")
        star5.add_channel("leaf0", "newcomer", 1.0, 1.0)
        star5.add_channel("leaf1", "leaf2", 1.0, 1.0)
        zipf.invalidate()
        new_row = zipf.receivers("leaf0")
        assert "newcomer" in new_row and "newcomer" not in old_row
        assert new_row["leaf1"] > old_row["leaf1"]
        draws, state = sampled_draws(zipf, "leaf0", 4, 2000)
        assert (draws, state) == choice_draws(zipf, "leaf0", 4, 2000)
        assert "newcomer" in draws

    def test_cached_table_is_kept_until_invalidate(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        before = sampled_draws(zipf, "leaf0", 4, 500)
        star5.add_channel("leaf0", "newcomer", 1.0, 1.0)
        assert sampled_draws(zipf, "leaf0", 4, 500) == before

    def test_cache_off_keeps_no_table(self, star5):
        zipf = ModifiedZipf(star5, s=1.0, cache=False)
        sampled_draws(zipf, "leaf0", 1, 50)
        assert zipf._tables is None
        star5.add_channel("leaf0", "newcomer", 1.0, 1.0)
        draws, state = sampled_draws(zipf, "leaf0", 4, 2000)
        assert (draws, state) == choice_draws(zipf, "leaf0", 4, 2000)
        assert "newcomer" in draws
