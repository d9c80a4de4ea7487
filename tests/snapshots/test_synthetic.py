"""Unit tests for synthetic Lightning snapshot generators."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import InvalidParameter
from repro.snapshots.synthetic import (
    barabasi_albert_snapshot,
    core_periphery_snapshot,
    erdos_renyi_snapshot,
)


class TestBarabasiAlbert:
    def test_node_and_channel_counts(self):
        graph = barabasi_albert_snapshot(40, attachments=2, seed=0)
        assert len(graph) == 40
        # BA with m=2: (n - m) * m edges
        assert graph.num_channels() == (40 - 2) * 2

    def test_connected(self):
        graph = barabasi_albert_snapshot(60, seed=1)
        assert nx.is_connected(graph.view(directed=False).to_networkx())

    def test_heavy_tail(self):
        graph = barabasi_albert_snapshot(150, attachments=2, seed=2)
        degrees = sorted((graph.degree(v) for v in graph.nodes), reverse=True)
        # hubs well above the median degree
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]

    def test_seed_reproducible(self):
        g1 = barabasi_albert_snapshot(30, seed=5)
        g2 = barabasi_albert_snapshot(30, seed=5)
        caps1 = sorted(c.capacity for c in g1.channels)
        caps2 = sorted(c.capacity for c in g2.channels)
        assert caps1 == pytest.approx(caps2)

    def test_positive_capacities_and_balances(self):
        graph = barabasi_albert_snapshot(30, seed=3)
        for channel in graph.channels:
            assert channel.capacity > 0
            assert channel.balance(channel.u) >= 0
            assert channel.balance(channel.v) >= 0

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidParameter):
            barabasi_albert_snapshot(2, attachments=2)

    @pytest.mark.parametrize("attachments", [0, -1])
    def test_rejects_attachments_below_one(self, attachments):
        with pytest.raises(InvalidParameter, match="attachments must be >= 1"):
            barabasi_albert_snapshot(10, attachments=attachments)

    @pytest.mark.parametrize(
        "params",
        [{"n": 10, "attachments": 2.5}, {"n": 10.5}, {"n": 10, "attachments": True}],
    )
    def test_rejects_non_integer_counts(self, params):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            barabasi_albert_snapshot(**params)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"balance_skew": 0}, "balance_skew must be > 0"),
            ({"capacity_sigma": -1}, "capacity_sigma must be >= 0"),
            ({"capacity_mu": "1.5"}, "capacity_mu must be a finite number"),
            ({"capacity_mu": float("nan")}, "capacity_mu must be a finite number"),
        ],
    )
    def test_rejects_bad_funding_parameters(self, params, message):
        with pytest.raises(InvalidParameter, match=message):
            barabasi_albert_snapshot(10, seed=0, **params)

    def test_accepts_numpy_integers(self):
        graph = barabasi_albert_snapshot(np.int64(12), attachments=np.int32(2), seed=0)
        assert len(graph) == 12


class TestCorePeriphery:
    def test_structure(self):
        graph = core_periphery_snapshot(
            core_size=5, periphery_size=20, periphery_links=2, seed=0
        )
        assert len(graph) == 25
        # clique edges + periphery edges
        assert graph.num_channels() == 10 + 40

    def test_core_nodes_are_hubs(self):
        graph = core_periphery_snapshot(
            core_size=5, periphery_size=40, periphery_links=1, seed=1
        )
        core_degrees = [graph.degree(f"n{i}") for i in range(5)]
        periphery_degrees = [graph.degree(f"n{i}") for i in range(5, 45)]
        assert min(core_degrees) > max(periphery_degrees)

    def test_periphery_connects_only_to_core(self):
        graph = core_periphery_snapshot(
            core_size=4, periphery_size=10, periphery_links=2, seed=2
        )
        core = {f"n{i}" for i in range(4)}
        for i in range(4, 14):
            assert set(graph.neighbors(f"n{i}")) <= core

    def test_rejects_bad_links(self):
        with pytest.raises(InvalidParameter):
            core_periphery_snapshot(core_size=3, periphery_links=5)

    def test_rejects_negative_periphery(self):
        with pytest.raises(InvalidParameter, match="periphery_size must be >= 0"):
            core_periphery_snapshot(periphery_size=-3)

    def test_empty_periphery_is_the_core_clique(self):
        graph = core_periphery_snapshot(core_size=4, periphery_size=0, seed=0)
        assert len(graph) == 4
        assert graph.num_channels() == 6


class TestErdosRenyi:
    def test_connected_by_construction(self):
        graph = erdos_renyi_snapshot(30, p=0.15, seed=0)
        assert nx.is_connected(graph.view(directed=False).to_networkx())

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidParameter):
            erdos_renyi_snapshot(10, p=0.0)

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidParameter):
            erdos_renyi_snapshot(1)

    @pytest.mark.parametrize("p", ["0.5", None, True])
    def test_rejects_non_numeric_p(self, p):
        with pytest.raises(InvalidParameter, match="p must be a number"):
            erdos_renyi_snapshot(10, p=p)

    def test_rejects_non_integer_n(self):
        with pytest.raises(InvalidParameter, match="n must be an integer"):
            erdos_renyi_snapshot(10.5)
