"""Exact-equality tests for the cached receiver sampling tables.

``sample_receiver`` promises the receiver ``Generator.choice(len(row),
p=row)`` would draw from the same stream, one ``random()`` per call. The
reference below is that ``choice`` call over the row :meth:`receivers`
returns, so any drift in the table's float operations or RNG use fails.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def multigraphs(draw):
    """Small multigraphs: parallel channels, isolated nodes, and node names
    whose ``str`` forms sort apart from their values or collide (``1`` and
    ``"1"``), so every tie-break of the ranking is exercised."""
    pool = list(range(12)) + ["1", "10", "b"]
    nodes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10, unique=True))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=25,
        )
    )
    graph = ChannelGraph()
    for node in nodes:
        graph.add_node(node)
    for u, v in pairs:
        graph.add_channel(u, v, 1.0, 1.0)
    return graph


def brute_force_row(graph, sender, s):
    """Section II-B by definition: rank ``G - sender`` by ``(-deg, str)``,
    average ``1/r^s`` over each tie block, normalise by the sum."""
    ranked = sorted(
        brute_force_degrees(graph, sender).items(), key=lambda kv: (-kv[1], str(kv[0]))
    )
    factors = []
    for size in collections.Counter(d for _, d in ranked).values():
        first = len(factors) + 1
        block = [1.0 / float(rank) ** s for rank in range(first, first + size)]
        factors.extend([sum(block) / len(block)] * size)
    total = sum(factors)
    return {node: factor / total for (node, _), factor in zip(ranked, factors)}


class TestPerGraphRanking:
    @given(graph=multigraphs(), s=st.sampled_from([0.0, 0.5, 1.0, 2.3]))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_brute_force(self, graph, s):
        zipf = ModifiedZipf(graph, s=s)
        for sender in graph.nodes:
            row = zipf.receivers(sender)
            expected = brute_force_row(graph, sender, s)
            assert list(row.items()) == list(expected.items())

    def test_degrees_read_once_per_node(self, monkeypatch):
        graph = barabasi_albert_snapshot(60, seed=5)
        calls = collections.Counter()
        degree = ChannelGraph.degree

        def counting_degree(self, node):
            calls[node] += 1
            return degree(self, node)

        monkeypatch.setattr(ChannelGraph, "degree", counting_degree)
        zipf = ModifiedZipf(graph, s=1.0)
        rng = np.random.default_rng(0)
        for sender in graph.nodes[:30]:
            zipf.sample_receiver(sender, rng)
        # a balance move bumps graph.version but leaves the ranking valid
        channel = graph.channels[0]
        payer = max(channel.endpoints, key=channel.balance)
        channel.send(payer, channel.balance(payer) / 2)
        for sender in graph.nodes:
            zipf.receivers(sender)
            zipf.sample_receiver(sender, rng)
        assert set(calls) == set(graph.nodes)
        assert max(calls.values()) == 1


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
