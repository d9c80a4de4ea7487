"""Exact-equality tests for the cached receiver sampling tables.

``sample_receiver`` promises the receiver ``Generator.choice(len(row),
p=row)`` would draw from the same stream, one ``random()`` per call. The
reference below is that ``choice`` call over the row :meth:`receivers`
returns, so any drift in the table's float operations or RNG use fails.

The rows themselves are checked against Section II-B worked out by brute
force on random multigraphs (parallel channels, isolated nodes, node
names whose ``str`` forms collide): lone ``receivers`` rows, a batch of
one against its row of the batch of all senders, the whole-graph row
and the all-senders table built in batches of any size. A block of
senders' tables, built as one 2-D cumulative table, must equal bit for
bit the table each sender's lone row gives.
"""

import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameter
from repro.network.graph import ChannelGraph
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions import zipf as zipf_module
from repro.transactions.distributions import (
    EmpiricalDistribution,
    TransactionDistribution,
    UniformDistribution,
    choice_cdf,
)
from repro.transactions.sizes import FixedSize
from repro.transactions.workload import PoissonWorkload
from repro.transactions.ranking import DegreeRanking, _tie_factors
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


def degree_ranking(graph, perspective=None):
    """``(node, degree in G - perspective)`` pairs in rank order, from one
    :meth:`DegreeRanking.ranked` row."""
    ranking = DegreeRanking(graph)
    senders = None if perspective is None else [ranking.position(perspective)]
    order, degrees = ranking.ranked(senders)
    return [
        (ranking.nodes[i], d) for i, d in zip(order[0].tolist(), degrees[0].tolist())
    ]


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


def brute_force_ranked(graph, perspective, s):
    """Section II-B by definition: rank ``G - perspective`` by ``(-deg,
    str)``, graph order breaking what is left, average ``1/r^s`` over each
    tie block and divide by the row total, adding left to right.
    ``[(node, degree, factor, probability)]`` in rank order."""
    ranked = sorted(
        brute_force_degrees(graph, perspective).items(),
        key=lambda kv: (-kv[1], str(kv[0])),
    )
    factors = []
    for size in collections.Counter(d for _, d in ranked).values():
        first = len(factors) + 1
        block = 0.0
        for rank in range(first, first + size):
            block += 1.0 / float(rank) ** s
        factors.extend([block / size] * size)
    total = 0.0
    for factor in factors:
        total += factor
    return [
        (node, degree, factor, factor / total)
        for (node, degree), factor in zip(ranked, factors)
    ]


def brute_force_row(graph, sender, s):
    return {node: p for node, _, _, p in brute_force_ranked(graph, sender, s)}


class TestPerGraphRanking:
    @given(graph=multigraphs(), s=st.sampled_from([0.0, 0.5, 1.0, 2.3]))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_brute_force(self, graph, s):
        zipf = ModifiedZipf(graph, s=s)
        for sender in graph.nodes:
            row = zipf.receivers(sender)
            expected = brute_force_row(graph, sender, s)
            assert list(row.items()) == list(expected.items())

    @given(graph=multigraphs(), s=st.sampled_from([0.0, 1.0, 2.3]))
    @settings(max_examples=150, deadline=None)
    def test_batch_of_one_is_its_row_of_the_batch_of_all(self, graph, s):
        ranking = DegreeRanking(graph)
        order, probs = ranking.probabilities(list(range(len(graph))), s)
        for i, sender in enumerate(graph.nodes):
            row = [(ranking.nodes[j], p) for j, p in zip(order[i].tolist(), probs[i].tolist())]
            assert row == list(brute_force_row(graph, sender, s).items())
            alone_order, alone_probs = ranking.probabilities([i], s)
            assert alone_order.tobytes() == order[i].tobytes()
            assert alone_probs.tobytes() == probs[i].tobytes()

    @given(graph=multigraphs(), s=st.sampled_from([0.0, 1.0, 2.3]))
    @settings(max_examples=150, deadline=None)
    def test_whole_graph_row_matches_brute_force(self, graph, s):
        expected = brute_force_ranked(graph, None, s)
        ranking = DegreeRanking(graph)
        order, probs = ranking.probabilities(None, s)
        assert [
            (ranking.nodes[j], p) for j, p in zip(order[0].tolist(), probs[0].tolist())
        ] == [(node, p) for node, _, _, p in expected]
        ranked, degrees = ranking.ranked(None)
        assert list(zip(
            [ranking.nodes[j] for j in ranked[0].tolist()],
            _tie_factors(degrees, s)[0].tolist(),
        )) == [(node, f) for node, _, f, _ in expected]
        assert degree_ranking(graph) == [(node, d) for node, d, _, _ in expected]

    @given(graph=multigraphs(), s=st.sampled_from([0.0, 1.0, 2.3]), batch=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_probability_table_matches_lone_rows(self, graph, s, batch):
        """The all-senders table, built ``batch`` senders at a time, equals
        the base class's, filled from one lone :meth:`receivers` row at a
        time."""
        with mock.patch.object(zipf_module, "ROW_BATCH", batch):
            table = ModifiedZipf(graph, s=s).pair_probabilities(graph.nodes)
        filled = TransactionDistribution.pair_probabilities(
            ModifiedZipf(graph, s=s), graph.nodes
        )
        assert table.tobytes() == filled.tobytes()

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


class TestTopologyChanges:
    def test_new_instance_rebuilds_rows_and_table(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        sampled_draws(zipf, "leaf0", 1, 50)  # builds the cached table
        old_row = zipf.receivers("leaf0")
        star5.add_channel("leaf0", "newcomer", 1.0, 1.0)
        star5.add_channel("leaf1", "leaf2", 1.0, 1.0)
        zipf = ModifiedZipf(star5, s=1.0)
        new_row = zipf.receivers("leaf0")
        assert "newcomer" in new_row and "newcomer" not in old_row
        assert new_row["leaf1"] > old_row["leaf1"]
        draws, state = sampled_draws(zipf, "leaf0", 4, 2000)
        assert (draws, state) == choice_draws(zipf, "leaf0", 4, 2000)
        assert "newcomer" in draws

    def test_cached_table_is_kept(self, star5):
        zipf = ModifiedZipf(star5, s=1.0)
        before = sampled_draws(zipf, "leaf0", 4, 500)
        star5.add_channel("leaf0", "newcomer", 1.0, 1.0)
        assert sampled_draws(zipf, "leaf0", 4, 500) == before


def lone_table(distribution, sender):
    """``sender``'s table from its own row alone: the receivers of
    :meth:`receivers`, and :func:`choice_cdf` over their probabilities
    normalised by their own sum."""
    row = distribution.receivers(sender)
    probs = np.fromiter(row.values(), dtype=float, count=len(row))
    probs /= probs.sum()
    return list(row), choice_cdf(probs)


def parallel_ties() -> ChannelGraph:
    """A 70-cycle (every degree 2) with parallel channels and chords."""
    edges = [(i, (i + 1) % 70) for i in range(70)]
    edges += [(0, 1), (0, 1), (10, 20), (10, 20), (30, 31), (40, 50), (41, 51)]
    return ChannelGraph.from_edges(edges)


TABLE_GRAPHS = {
    "ba200": lambda: barabasi_albert_snapshot(200, seed=5),
    "star": lambda: ChannelGraph.from_edges([("hub", f"leaf{i}") for i in range(40)]),
    "path": lambda: ChannelGraph.from_edges([(f"p{i}", f"p{i + 1}") for i in range(69)]),
    "parallel-ties": parallel_ties,
}


class TestBatchedTables:
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
    def test_every_sender_matches_its_lone_table(self, name, s):
        graph = TABLE_GRAPHS[name]()
        zipf = ModifiedZipf(graph, s=s)
        rng = np.random.default_rng(0)
        for position, sender in enumerate(graph.nodes):
            # the first sender of each block builds the whole block
            zipf.sample_receiver(sender, rng)
            assert len(zipf._tables) == min(
                len(graph), (position // zipf_module.ROW_BATCH + 1) * zipf_module.ROW_BATCH
            )
            labels, receivers, cdf = zipf._tables[sender]
            nodes, expected = lone_table(zipf, sender)
            assert [labels[i] for i in receivers] == nodes
            assert cdf.tobytes() == expected.tobytes()

    def test_empty_row_raises(self):
        graph = ChannelGraph()
        graph.add_node("solo")
        zipf = ModifiedZipf(graph, s=1.0)
        with pytest.raises(InvalidParameter, match="'solo' is empty"):
            zipf.sample_receiver("solo", np.random.default_rng(0))

    @pytest.mark.parametrize(
        "bad_row", [[1.25, -0.25], [np.nan, 1.0], [np.inf, 0.0], [0.5, 0.25]]
    )
    def test_one_bad_row_fails_choice_checks(self, bad_row):
        with pytest.raises(InvalidParameter, match="sum to 1"):
            choice_cdf(np.array([[0.25, 0.75], bad_row]))


def test_fixed_int_size_yields_float_amounts():
    workload = PoissonWorkload(
        UniformDistribution(["a", "b", "c"]), {"a": 1.0, "b": 2.0},
        sizes=FixedSize(1), seed=3,
    )
    amounts = [tx.amount for tx in workload.generate_count(20)]
    assert amounts == [1.0] * 20
    assert {type(amount) for amount in amounts} == {float}
