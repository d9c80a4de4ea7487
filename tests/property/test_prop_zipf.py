"""Property-based tests: modified-Zipf invariants (Section II-B)."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.network.graph import ChannelGraph
from repro.transactions.ranking import _tie_factors
from repro.transactions.zipf import ModifiedZipf


def rank_factors_from_degrees(degrees, s):
    """Rank factors of one non-increasing degree row."""
    return _tie_factors(np.asarray(degrees, dtype=float).reshape(1, -1), s)[0].tolist()


@st.composite
def degree_sequences(draw):
    seq = draw(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30)
    )
    return sorted(seq, reverse=True)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    structure = nx.gnp_random_graph(n, 0.5, seed=seed)
    graph = ChannelGraph()
    for node in structure.nodes:
        graph.add_node(node)
    for u, v in structure.edges:
        graph.add_channel(u, v, 1.0, 1.0)
    return graph


class TestRankFactorProperties:
    @given(degrees=degree_sequences(), s=st.floats(0.0, 5.0, allow_nan=False))
    @settings(max_examples=150)
    def test_factors_positive_and_bounded(self, degrees, s):
        factors = rank_factors_from_degrees(degrees, s)
        assert all(0 < f <= 1.0 for f in factors)

    @given(degrees=degree_sequences(), s=st.floats(0.0, 5.0, allow_nan=False))
    @settings(max_examples=150)
    def test_equal_degree_equal_factor(self, degrees, s):
        factors = rank_factors_from_degrees(degrees, s)
        by_degree = {}
        for degree, factor in zip(degrees, factors):
            by_degree.setdefault(degree, set()).add(round(factor, 12))
        assert all(len(values) == 1 for values in by_degree.values())

    @given(degrees=degree_sequences(), s=st.floats(0.01, 5.0, allow_nan=False))
    @settings(max_examples=150)
    def test_paper_monotonicity_property(self, degrees, s):
        """r1(v1) < r2(v2) => rf(v1) > rf(v2) (end of Section II-B)."""
        factors = rank_factors_from_degrees(degrees, s)
        # distinct degree blocks appear in strictly decreasing factor order
        block_factors = []
        for degree, factor in zip(degrees, factors):
            if not block_factors or block_factors[-1][0] != degree:
                block_factors.append((degree, factor))
        values = [f for _, f in block_factors]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(degrees=degree_sequences())
    @settings(max_examples=80)
    def test_total_mass_conserved(self, degrees):
        """Tie-averaging redistributes but never creates/destroys mass."""
        s = 1.0
        factors = rank_factors_from_degrees(degrees, s)
        plain = [1.0 / r**s for r in range(1, len(degrees) + 1)]
        assert sum(factors) == pytest.approx(sum(plain))


class TestZipfOnRandomGraphs:
    @given(graph=random_graphs(), s=st.floats(0.0, 4.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_distributions(self, graph, s):
        zipf = ModifiedZipf(graph, s=s)
        for sender in graph.nodes:
            row = zipf.receivers(sender)
            assert sender not in row
            assert sum(row.values()) == pytest.approx(1.0)
            assert all(p >= 0 for p in row.values())

    @given(graph=random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_higher_degree_weakly_more_likely(self, graph):
        zipf = ModifiedZipf(graph, s=1.5)
        sender = list(graph.nodes)[0]
        row = zipf.receivers(sender)
        ranked = sorted(
            row.items(),
            key=lambda kv: graph.degree(kv[0]),
            reverse=True,
        )
        probs = [p for _, p in ranked]
        degrees = [graph.degree(v) for v, _ in ranked]
        for i in range(len(probs) - 1):
            if degrees[i] > degrees[i + 1]:
                assert probs[i] >= probs[i + 1] - 1e-12
