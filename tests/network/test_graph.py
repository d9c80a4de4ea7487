"""Unit tests for :mod:`repro.network.graph`."""

import gc
import weakref

import pytest

from repro.errors import ChannelNotFound, DuplicateChannel, NodeNotFound
from repro.network.graph import ChannelGraph
from repro.snapshots.io import from_describegraph


class TestConstruction:
    def test_empty(self):
        graph = ChannelGraph()
        assert len(graph) == 0
        assert graph.num_channels() == 0

    def test_add_node_idempotent(self):
        graph = ChannelGraph()
        graph.add_node("a")
        graph.add_node("a")
        assert len(graph) == 1

    def test_add_channel_creates_endpoints(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 2.0)
        assert "a" in graph and "b" in graph

    def test_duplicate_channel_id_rejected(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, channel_id="x")
        with pytest.raises(DuplicateChannel):
            graph.add_channel("a", "c", 1.0, channel_id="x")
        auto = graph.add_channel("a", "c", 1.0)
        with pytest.raises(DuplicateChannel):
            graph.add_channel("b", "c", 1.0, channel_id=auto.channel_id)

    def test_same_construction_same_ids(self):
        def build():
            graph = ChannelGraph.from_edges([("a", "b"), ("b", "c"), ("a", "b")])
            graph.remove_channel("chan-1")
            graph.add_channel("c", "d", 1.0)
            return [channel.channel_id for channel in graph.channels]

        ids = build()
        ChannelGraph.from_edges([("x", "y")] * 5)
        assert build() == ids == ["chan-0", "chan-2", "chan-3"]

    def test_auto_ids_skip_past_explicit_ids(self):
        # A snapshot carries the ids of the graph that wrote it; the
        # loaded graph's own auto ids must not mint them again.
        taken = [f"chan-{i}" for i in range(4)]
        graph = from_describegraph({
            "edges": [
                {"channel_id": channel_id, "node1_pub": "a",
                 "node2_pub": f"b{i}", "capacity": "2"}
                for i, channel_id in enumerate(taken)
            ]
        })
        fresh = graph.add_channel("a", "c", 1.0)
        assert fresh.channel_id == "chan-4"
        assert graph.num_channels() == 5

    def test_parallel_channels_allowed(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0)
        graph.add_channel("a", "b", 2.0)
        assert len(graph.channels_between("a", "b")) == 2
        assert graph.degree("a") == 2

    def test_from_edges(self, diamond):
        assert len(diamond) == 4
        assert diamond.num_channels() == 4
        for channel in diamond.channels:
            assert channel.capacity == 10.0


class TestRemoval:
    def test_remove_channel(self):
        graph = ChannelGraph()
        channel = graph.add_channel("a", "b", 1.0)
        graph.remove_channel(channel.channel_id)
        assert graph.num_channels() == 0
        assert graph.degree("a") == 0

    def test_remove_missing_channel(self):
        with pytest.raises(ChannelNotFound):
            ChannelGraph().remove_channel("nope")

    def test_remove_node_drops_incident_channels(self, diamond):
        diamond.remove_node("b")
        assert "b" not in diamond
        assert diamond.num_channels() == 1  # only c-d remains

    def test_remove_missing_node(self):
        with pytest.raises(NodeNotFound):
            ChannelGraph().remove_node("ghost")


class TestQueries:
    def test_neighbors_unique(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0)
        graph.add_channel("a", "b", 2.0)
        graph.add_channel("a", "c", 1.0)
        assert sorted(graph.neighbors("a")) == ["b", "c"]

    def test_degree_counts_parallel(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0)
        graph.add_channel("a", "b", 2.0)
        assert graph.degree("a") == 2

    def test_degree_missing_node(self, diamond):
        with pytest.raises(NodeNotFound):
            diamond.degree("ghost")

    def test_has_channel(self, diamond):
        assert diamond.has_channel("a", "b")
        assert not diamond.has_channel("a", "d")
        assert not diamond.has_channel("a", "ghost")

    def test_total_capacity(self, diamond):
        assert diamond.total_capacity() == pytest.approx(40.0)

    def test_balance_of(self, line3):
        assert line3.balance_of("b") == pytest.approx(2.0 + 8.0)

    def test_channels_between_missing_node(self, diamond):
        with pytest.raises(NodeNotFound):
            diamond.channels_between("a", "ghost")


class TestViews:
    def test_undirected_view_structure(self, diamond):
        undirected = diamond.view(directed=False).to_networkx()
        assert undirected.number_of_nodes() == 4
        assert undirected.number_of_edges() == 4

    def test_undirected_view_cached(self, diamond):
        assert diamond.view(directed=False) is diamond.view(directed=False)

    def test_undirected_cache_invalidated_on_mutation(self, diamond):
        view1 = diamond.view(directed=False)
        diamond.add_channel("d", "e", 1.0)
        view2 = diamond.view(directed=False)
        assert view1 is not view2
        assert view2.to_networkx().has_edge("d", "e")
        assert not view1.to_networkx().has_edge("d", "e")

    @pytest.mark.parametrize("directed", [False, True])
    def test_to_networkx_returns_a_fresh_graph(self, diamond, directed):
        """Mutating one materialisation leaves the next one intact, even
        though the view itself is cached per graph version."""
        view = diamond.view(directed=directed)
        first = view.to_networkx()
        edges = sorted(first.edges)
        first.remove_edge("a", "b")
        first.add_edge("a", "ghost")
        second = diamond.view(directed=directed).to_networkx()
        assert second is not first
        assert sorted(second.edges) == edges
        assert "ghost" not in second

    def test_undirected_merges_parallel_capacity(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 1.0)
        graph.add_channel("a", "b", 2.0, 2.0)
        view = graph.view(directed=False).to_networkx()
        assert view["a"]["b"]["capacity"] == pytest.approx(6.0)

    def test_directed_view_balances(self, line3):
        directed = line3.view(directed=True).to_networkx()
        assert directed["a"]["b"]["balance"] == pytest.approx(10.0)
        assert directed["b"]["a"]["balance"] == pytest.approx(2.0)

    def test_directed_reduced_drops_low_balance(self, line3):
        reduced = line3.view(directed=True, reduced=5.0).to_networkx()
        assert reduced.has_edge("a", "b")
        assert not reduced.has_edge("b", "a")  # balance 2 < 5
        assert reduced.has_edge("b", "c")
        assert not reduced.has_edge("c", "b")

    def test_directed_view_aggregates_parallel(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 0.0)
        graph.add_channel("a", "b", 2.0, 0.0)
        directed = graph.view(directed=True).to_networkx()
        assert directed["a"]["b"]["balance"] == pytest.approx(3.0)


class TestCopy:
    def test_copy_independent(self, diamond):
        clone = diamond.copy()
        clone.add_channel("a", "d", 1.0)
        assert not diamond.has_channel("a", "d")

    def test_copy_preserves_balances(self, line3):
        clone = line3.copy()
        channel = clone.channels_between("a", "b")[0]
        assert channel.balance("a") == 10.0
        assert channel.balance("b") == 2.0

    def test_copy_keeps_ids_and_next_auto_id(self, diamond):
        # With its newest channel closed, the next id is past every id
        # the graph still holds.
        diamond.remove_channel(diamond.channels[-1].channel_id)
        clone = diamond.copy()
        assert [c.channel_id for c in clone.channels] == [
            c.channel_id for c in diamond.channels
        ]
        assert (
            clone.add_channel("a", "d", 1.0).channel_id
            == diamond.add_channel("a", "d", 1.0).channel_id
        )

    def test_copy_preserves_isolated_nodes(self):
        graph = ChannelGraph()
        graph.add_node("lonely")
        assert "lonely" in graph.copy()


class TestLifetime:
    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        """Channels share the graph's version counter, not the graph, so
        reference counting alone frees a dropped graph."""
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 2.0)
        graph.add_channel("b", "c", 8.0, 1.0)
        graph.add_channel("b", "c", 3.0, 3.0)
        graph.view(directed=True)
        version = graph.version
        graph.channels[1].send("b", 1.0)
        assert graph.version == version + 1
        ref = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert ref() is None
        finally:
            gc.enable()
