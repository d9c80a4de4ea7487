"""Parity and caching tests for the CSR view layer.

Randomised graphs: everything the CSR snapshots compute — pair-weighted
betweenness, shortest-path counts, hop distances, reduced-subgraph
membership, routing — must match networkx run on ``view.to_networkx()``,
or the shortest-path enumeration oracle, within 1e-9.
"""

import math

import networkx as nx
import pytest

from repro.errors import InvalidParameter, ScenarioError
from repro.network.betweenness import (
    betweenness_arrays,
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
)
from repro.network.graph import ChannelGraph
from repro.network.views import (
    GraphView,
    all_pairs_paths,
    bfs_distances,
    bfs_shortest_path_tree,
    shortest_path_indices,
)
from repro.core.fees_paid import single_source_hops
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.snapshots import barabasi_albert_snapshot, erdos_renyi_snapshot
from repro.transactions.zipf import ModifiedZipf

TOL = 1e-9


def reference_digraph(graph: ChannelGraph, min_balance: float = 0.0):
    """The (reduced) directed view as a networkx graph, for references."""
    return graph.view(directed=True, reduced=min_balance).to_networkx()


def assert_results_match(fast, reference):
    for node in reference.node:
        assert fast.node[node] == pytest.approx(reference.node[node], abs=TOL)
    for edge in set(reference.edge) | set(fast.edge):
        assert fast.edge.get(edge, 0.0) == pytest.approx(
            reference.edge.get(edge, 0.0), abs=TOL
        )


def random_graphs():
    """A spread of randomised topologies (sizes straddle the small-graph
    fast-path threshold)."""
    graphs = []
    for seed in (1, 7, 42):
        graphs.append(barabasi_albert_snapshot(30, seed=seed))
        graphs.append(erdos_renyi_snapshot(25, p=0.15, seed=seed))
    graphs.append(barabasi_albert_snapshot(170, seed=3))  # vectorised path
    return graphs


class TestViewStructure:
    def test_nodes_and_entries_match_digraph(self):
        for graph in random_graphs():
            view = graph.view(directed=True)
            digraph = reference_digraph(graph)
            assert set(view.nodes) == set(digraph.nodes)
            rows = view.entry_rows()
            edges = {
                (view.nodes[rows[k]], view.nodes[view.indices[k]])
                for k in range(view.num_entries)
            }
            assert edges == set(digraph.edges)

    def test_balances_match_digraph(self):
        graph = barabasi_albert_snapshot(40, seed=9)
        view = graph.view(directed=True)
        digraph = reference_digraph(graph)
        rows = view.entry_rows()
        for k in range(view.num_entries):
            src = view.nodes[rows[k]]
            dst = view.nodes[view.indices[k]]
            assert view.balances[k] == pytest.approx(
                digraph[src][dst]["balance"], abs=TOL
            )

    def test_parallel_channels_aggregate(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 3.0, 1.0)
        graph.add_channel("a", "b", 2.0, 5.0)
        view = graph.view(directed=True)
        # "a" has one neighbour, so its row holds the single a -> b entry.
        entry = int(view.indptr[view.index_of("a")])
        assert view.balances[entry] == pytest.approx(5.0)
        assert view.capacities[entry] == pytest.approx(11.0)
        assert set(view.pair_channels[int(view.edge_ids[entry])]) == {
            c.channel_id for c in graph.channels
        }

    def test_arrays_immutable(self):
        view = barabasi_albert_snapshot(10, seed=0).view(directed=True)
        with pytest.raises(ValueError):
            view.balances[0] = 99.0
        with pytest.raises(ValueError):
            view.indices[0] = 0

    def test_undirected_cannot_be_reduced(self):
        graph = barabasi_albert_snapshot(10, seed=0)
        with pytest.raises(InvalidParameter):
            graph.view(directed=False, reduced=1.0)

    def test_negative_reduction_rejected(self):
        graph = barabasi_albert_snapshot(10, seed=0)
        with pytest.raises(InvalidParameter):
            graph.view(directed=True, reduced=-1.0)

    def test_fee_params_surface_in_arrays(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 1.0, fee_base=0.5, fee_rate=0.01)
        view = graph.view(directed=True)
        assert view.fee_base[0] == pytest.approx(0.5)
        assert view.fee_rate[0] == pytest.approx(0.01)

    def test_parallel_fee_policies_keep_one_real_policy(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 1.0, fee_base=1.0, fee_rate=0.0)
        graph.add_channel("a", "b", 1.0, 1.0, fee_base=0.0, fee_rate=2.0)
        view = graph.view(directed=True)
        # cheapest at unit amount wins, as a whole (base, rate) pair —
        # never a synthesized component-wise mix like (0, 0).
        assert (float(view.fee_base[0]), float(view.fee_rate[0])) == (1.0, 0.0)


class TestBetweennessParity:
    def test_uniform_weights(self):
        for graph in random_graphs():
            digraph = reference_digraph(graph)
            fast = pair_weighted_betweenness(graph.view(directed=True))
            nodes = nx.betweenness_centrality(digraph, normalized=False)
            edges = nx.edge_betweenness_centrality(digraph, normalized=False)
            for node, value in nodes.items():
                assert fast.node[node] == pytest.approx(value, abs=TOL)
            for edge, value in edges.items():
                assert fast.edge_value(*edge) == pytest.approx(value, abs=TOL)

    def test_zipf_weights(self):
        for graph in random_graphs()[:4]:
            distribution = ModifiedZipf(graph, s=1.0)

            def weight(s, r):
                return distribution.probability(s, r)

            view = graph.view(directed=True)
            assert_results_match(
                pair_weighted_betweenness(view, weight),
                pair_weighted_betweenness_exact(view, weight),
            )

    def test_restricted_sources(self):
        graph = barabasi_albert_snapshot(30, seed=5)
        view = graph.view(directed=True)
        sources = set(list(graph.nodes)[:7])
        assert_results_match(
            pair_weighted_betweenness(view, sources=sources),
            pair_weighted_betweenness_exact(
                view, lambda s, _r: 1.0 if s in sources else 0.0
            ),
        )

    def test_reduced_subgraph_betweenness(self):
        graph = barabasi_albert_snapshot(30, seed=11)
        amount = 2.0
        reference = nx.betweenness_centrality(
            reference_digraph(graph, amount), normalized=False
        )
        fast = pair_weighted_betweenness(
            graph.view(directed=True, reduced=amount)
        )
        for node, value in reference.items():
            assert fast.node[node] == pytest.approx(value, abs=TOL)

    def test_arrays_form(self):
        graph = barabasi_albert_snapshot(20, seed=2)
        view = graph.view(directed=True)
        arrays = betweenness_arrays(view)
        result = arrays.to_result()
        assert arrays.node_values.shape == (view.num_nodes,)
        assert arrays.edge_values.shape == (view.num_entries,)
        assert result.node_value(view.nodes[0]) == pytest.approx(
            float(arrays.node_values[0]), abs=TOL
        )


class TestShortestPathCounts:
    def test_sigma_matches_legacy_bfs(self):
        for graph in random_graphs():
            view = graph.view(directed=True)
            digraph = reference_digraph(graph)
            for source in list(view.nodes)[:5]:
                dist = nx.single_source_shortest_path_length(digraph, source)
                tree = bfs_shortest_path_tree(view, view.index_of(source))
                for i, node in enumerate(view.nodes):
                    if node in dist:
                        assert tree.dist[i] == dist[node]
                        paths = nx.all_shortest_paths(digraph, source, node)
                        assert tree.sigma[i] == sum(1 for _ in paths)
                    else:
                        assert tree.dist[i] == -1

    def test_hop_distances_match(self):
        graph = barabasi_albert_snapshot(35, seed=13)
        view = graph.view(directed=True)
        digraph = reference_digraph(graph)
        for source in list(view.nodes)[:5]:
            expected = nx.single_source_shortest_path_length(digraph, source)
            assert single_source_hops(view, source) == expected

    def test_shortest_path_indices_roundtrip(self):
        graph = barabasi_albert_snapshot(25, seed=4)
        view = graph.view(directed=True)
        digraph = reference_digraph(graph)
        for target in list(view.nodes)[1:6]:
            path = shortest_path_indices(
                view, view.index_of(view.nodes[0]), view.index_of(target)
            )
            expected = nx.shortest_path_length(
                digraph, view.nodes[0], target
            )
            assert path is not None
            assert len(path) - 1 == expected


class TestReducedParity:
    def test_membership_matches_legacy(self):
        for graph in random_graphs()[:4]:
            for amount in (0.5, 2.0, 8.0):
                view = graph.view(directed=True, reduced=amount)
                digraph = reference_digraph(graph, amount)
                rows = view.entry_rows()
                edges = {
                    (view.nodes[rows[k]], view.nodes[view.indices[k]])
                    for k in range(view.num_entries)
                }
                assert edges == set(digraph.edges)

    def test_bfs_reach_matches_descendants(self):
        graph = barabasi_albert_snapshot(25, seed=21)
        for amount in (1.0, 4.0):
            view = graph.view(directed=True, reduced=amount)
            digraph = reference_digraph(graph, amount)
            for s in range(view.num_nodes):
                reached = {
                    view.nodes[i]
                    for i in (bfs_distances(view, s) > 0).nonzero()[0]
                }
                assert reached == nx.descendants(digraph, view.nodes[s])


def route_finder(graph, **engine_kwargs):
    """``route(sender, receiver, amount)``: the simulation engine's path
    for one payment (node labels), or its failure reason."""
    engine = BatchedSimulationEngine(graph, **engine_kwargs)
    engine.run()  # freezes the array state routes are searched on

    def route(sender, receiver, amount):
        return engine._find_path(sender, receiver, amount, -1)

    return route


class TestRoutingOnViews:
    def test_first_route_is_shortest_and_feasible(self):
        graph = barabasi_albert_snapshot(30, seed=17, capacity_mu=3.0)
        digraph = reference_digraph(graph, 1.0)
        nodes = list(graph.nodes)
        route = route_finder(graph, path_selection="first")
        for sender, receiver in zip(nodes[:6], nodes[6:12]):
            try:
                expected = nx.shortest_path_length(digraph, sender, receiver)
            except nx.NetworkXNoPath:
                continue
            path = route(sender, receiver, 1.0)
            assert len(path) - 1 == expected
            for src, dst in zip(path, path[1:]):
                assert sum(
                    c.balance(src) for c in graph.channels_between(src, dst)
                ) >= 1.0

    def test_random_routes_are_shortest(self):
        graph = barabasi_albert_snapshot(30, seed=19, capacity_mu=3.0)
        digraph = reference_digraph(graph, 1.0)
        nodes = list(graph.nodes)
        sender, receiver = nodes[0], nodes[-1]
        expected = nx.shortest_path_length(digraph, sender, receiver)
        route = route_finder(graph, seed=3)
        for _ in range(20):
            assert len(route(sender, receiver, 1.0)) - 1 == expected

    def test_random_selection_covers_all_shortest_paths(self):
        # diamond: two equal shortest paths a->b->d / a->c->d
        graph = ChannelGraph.from_edges(
            [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")], balance=10.0
        )
        route = route_finder(graph, seed=0)
        seen = {tuple(route("a", "d", 1.0)) for _ in range(60)}
        assert seen == {("a", "b", "d"), ("a", "c", "d")}

    def test_csr_branch_routes_large_path_graph(self):
        """>= SMALL_GRAPH_NODES nodes takes the bidirectional search; the
        route must still run sender -> receiver."""
        from repro.network.views import SMALL_GRAPH_NODES

        n = SMALL_GRAPH_NODES + 10
        edges = [(f"v{i}", f"v{i+1}") for i in range(n - 1)]
        graph = ChannelGraph.from_edges(edges, balance=10.0)
        for selection in ("first", "random"):
            route = route_finder(graph, path_selection=selection, seed=1)
            assert route("v0", "v5", 1.0) == [f"v{i}" for i in range(6)]
        engine = BatchedSimulationEngine(graph)
        engine.schedule(PaymentEvent(time=1.0, sender="v0", receiver="v5", amount=2.0))
        assert engine.run().succeeded == 1
        first_hop = graph.channels_between("v0", "v1")[0]
        assert first_hop.balance("v0") == pytest.approx(8.0)
        assert first_hop.balance("v1") == pytest.approx(12.0)

    def test_csr_branch_matches_small_branch(self):
        """The large-graph search finds shortest feasible routes too."""
        from repro.network import views as views_module

        graph = barabasi_albert_snapshot(
            views_module.SMALL_GRAPH_NODES + 20, seed=29, capacity_mu=3.0
        )
        digraph = reference_digraph(graph, 1.0)
        nodes = list(graph.nodes)
        route = route_finder(graph)
        for sender, receiver in zip(nodes[:8], nodes[8:16]):
            try:
                expected = nx.shortest_path_length(digraph, sender, receiver)
            except nx.NetworkXNoPath:
                continue
            path = route(sender, receiver, 1.0)
            assert path[0] == sender
            assert path[-1] == receiver
            assert len(path) - 1 == expected


class TestViewCaching:
    def test_view_reused_between_reads(self):
        graph = barabasi_albert_snapshot(10, seed=1)
        assert graph.view(directed=True) is graph.view(directed=True)
        assert graph.view(directed=False) is graph.view(directed=False)
        assert graph.view(directed=True, reduced=2.0) is graph.view(
            directed=True, reduced=2.0
        )

    def test_structural_mutation_invalidates(self):
        graph = barabasi_albert_snapshot(10, seed=1)
        before = graph.view(directed=True)
        graph.add_channel("n0", "n5", 1.0, 1.0)
        assert graph.view(directed=True) is not before

    def test_balance_mutation_invalidates(self):
        """Regression: balance updates during simulation must not serve
        stale capacity arrays to the router."""
        graph = ChannelGraph()
        channel = graph.add_channel("a", "b", 5.0, 0.0)
        before = graph.view(directed=True, reduced=4.0)
        assert before.num_entries == 1
        channel.send("a", 3.0)  # a-side drops to 2 < 4
        after = graph.view(directed=True, reduced=4.0)
        assert after is not before
        assert after.num_entries == 0

    def test_balance_mutation_refreshes_router(self):
        graph = ChannelGraph()
        channel = graph.add_channel("a", "b", 5.0, 0.0)
        assert route_finder(graph)("a", "b", 4.0) == ["a", "b"]
        channel.send("a", 3.0)
        assert route_finder(graph)("a", "b", 4.0) == "no-capacity-path"

    def test_removed_channel_stops_invalidation(self):
        graph = ChannelGraph()
        channel = graph.add_channel("a", "b", 5.0, 5.0)
        graph.remove_channel(channel.channel_id)
        version = graph.version
        channel.send("a", 1.0)  # detached channel: no bump
        assert graph.version == version


class TestAllPairsCache:
    """``all_pairs_paths`` builds its tables once per view, read-only."""

    def test_tables_are_read_only(self):
        view = barabasi_albert_snapshot(10, seed=1).view(directed=True)
        for table in all_pairs_paths(view):
            with pytest.raises(ValueError):
                table[0, 0] = 5.0

    def test_second_call_returns_the_same_tables(self):
        view = barabasi_albert_snapshot(10, seed=1).view(directed=True)
        dist, sigma = all_pairs_paths(view)
        again = all_pairs_paths(view)
        assert again[0] is dist and again[1] is sigma

    def test_mutated_graph_gets_new_tables(self):
        graph = barabasi_albert_snapshot(10, seed=1)
        before = graph.view(directed=True)
        old_dist, old_sigma = all_pairs_paths(before)
        graph.add_channel("n0", "n5", 1.0, 1.0)
        after = graph.view(directed=True)
        new_dist, new_sigma = all_pairs_paths(after)
        assert new_dist is not old_dist and new_sigma is not old_sigma
        index = after.node_index
        assert new_dist[index["n0"], index["n5"]] == 1.0
        # The old view's tables still describe the old graph.
        assert all_pairs_paths(before)[0] is old_dist


class TestDeprecatedWrappersRemoved:
    def test_networkx_materialisation_is_view_only(self):
        """The to_undirected/to_directed deprecation cycle completed."""
        graph = barabasi_albert_snapshot(10, seed=2)
        assert not hasattr(graph, "to_directed")
        assert not hasattr(graph, "to_undirected")
        digraph = graph.view(directed=True).to_networkx()
        assert digraph.number_of_nodes() == len(graph)
        undirected = graph.view(directed=False).to_networkx()
        assert undirected.number_of_nodes() == len(graph)


class TestScenarioResultView:
    def test_result_exposes_view(self):
        from repro import Scenario, ScenarioRunner, TopologySpec

        result = ScenarioRunner().run(
            Scenario(topology=TopologySpec("ba", {"n": 12}), seed=3)
        )
        view = result.view()
        assert isinstance(view, GraphView)
        assert view.num_nodes == 12
        assert result.view(reduced=1.0).num_entries <= view.num_entries

    def test_no_graph_raises(self):
        from repro.scenarios.runner import ScenarioResult
        from repro import Scenario, TopologySpec

        result = ScenarioResult(
            scenario=Scenario(topology=TopologySpec("ba", {"n": 5}))
        )
        with pytest.raises(ScenarioError):
            result.view()


class TestModelOracleParity:
    """Greedy on the closed-form model picks what greedy on the augmented
    graph's view picks (free-function Brandes and BFS per evaluation)."""

    def test_greedy_matches_free_function_oracle(self):
        from repro.core.algorithms.greedy import greedy_fixed_funds
        from repro.core.fees_paid import expected_fees
        from repro.core.revenue import expected_revenue
        from repro.core.utility import JoiningUserModel
        from repro.params import ModelParameters

        class Oracle(JoiningUserModel):
            built = 0

            def _augmented(self, strategy):
                return self.with_strategy(strategy).view(
                    directed=True, reduced=self.routing_amount
                )

            def with_strategy(self, strategy):
                self.built += 1
                return super().with_strategy(strategy)

            def objectives(self, strategies, kind="simplified"):
                # The optimisers score through the batch kernel; send
                # every strategy through the scalar overrides instead.
                values = []
                for strategy in strategies:
                    fees = self.expected_fees(strategy)
                    revenue = (
                        -math.inf if math.isinf(fees)
                        else self.expected_revenue(strategy)
                    )
                    values.append(self._combine(kind, strategy, revenue, fees))
                return values

            def expected_revenue(self, strategy):
                return expected_revenue(
                    self._augmented(strategy), self.new_user,
                    self._pair_weight, self.params.fee_avg,
                )

            def expected_fees(self, strategy):
                return expected_fees(
                    self._augmented(strategy), self.new_user, self.own_probs,
                    self.params.user_tx_rate, self.params.fee_out_avg,
                    hop_convention=self.hop_convention,
                )

        graph = barabasi_albert_snapshot(20, seed=23)
        params = ModelParameters(total_tx_rate=50.0, user_tx_rate=2.0)
        oracle_model = Oracle(graph, "joiner", params)
        model, oracle = [
            greedy_fixed_funds(instance, budget=4.0, lock=1.0)
            for instance in (JoiningUserModel(graph, "joiner", params), oracle_model)
        ]
        # The oracle scored every strategy on augmented graphs: one for
        # the empty strategy (infinite fees end it), two (fees, revenue)
        # for each other evaluation and for the final utility.
        assert oracle.evaluations > 1
        assert oracle_model.built == 2 * oracle.evaluations + 1
        assert model.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-12
        )
        assert model.details["prefix_values"] == pytest.approx(
            oracle.details["prefix_values"], rel=1e-12
        )
        assert model.strategy.actions == oracle.strategy.actions
