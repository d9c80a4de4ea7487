"""EvolutionEngine: determinism, convergence, phases, trajectory shape."""

import math

import pytest

from repro.equilibrium.topologies import circle, path, star
from repro.evolution import (
    AnalyticUtilityProvider,
    EmpiricalUtilityProvider,
    EvolutionEngine,
    classify_topology,
    gini,
)
from repro.network.graph import ChannelGraph
from repro.simulation.metrics import SimulationMetrics
from repro.scenarios import (
    ChurnSpec,
    EvolutionSpec,
    FeeSpec,
    GrowthSpec,
    Scenario,
    ScenarioRunner,
    TopologySpec,
    WorkloadSpec,
)


def stable_star_spec(**overrides) -> EvolutionSpec:
    base = dict(
        epochs=5, utility="analytic", traffic_horizon=4.0,
        a=0.1, b=0.1, edge_cost=1.0, zipf_s=2.0, patience=2,
    )
    base.update(overrides)
    return EvolutionSpec(**base)


def evolving_scenario(seed=7, **spec_overrides) -> Scenario:
    spec = EvolutionSpec(
        epochs=5,
        growth=GrowthSpec("fixed", {
            "per_epoch": 1, "algorithm": "random-attach",
            "params": {"k": 2, "lock": 1.0},
        }),
        churn=ChurnSpec("uniform", {"rate": 0.1}),
        utility="empirical",
        traffic_horizon=5.0,
        sample=3,
        mode="sampled",
        edge_cost=0.01,
        final_nash_check=False,
        **spec_overrides,
    )
    return Scenario(
        topology=TopologySpec("circle", {"n": 8, "balance": 5.0}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.05, "rate": 0.01}),
        evolution=spec,
        name="evolving",
        seed=seed,
    )


class TestGini:
    def test_degenerate_cases(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0
        assert gini([5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_concentration(self):
        assert gini([0.0, 0.0, 0.0, 10.0]) == pytest.approx(0.75)
        assert 0.0 < gini([1.0, 2.0, 3.0, 4.0]) < 0.5


class TestClassify:
    def test_section_iv_topologies(self):
        assert classify_topology(star(6)) == "star"
        assert classify_topology(path(5)) == "path"
        assert classify_topology(circle(5)) == "circle"

    def test_complete_and_other(self):
        from repro.equilibrium.topologies import complete

        assert classify_topology(complete(5)) == "complete"
        diamond = ChannelGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")]
        )
        assert classify_topology(diamond) == "other"

    def test_disconnected_is_other(self):
        graph = ChannelGraph.from_edges([("a", "b"), ("c", "d")])
        assert classify_topology(graph) == "other"

    def test_parallel_channels_collapse(self):
        graph = star(4)
        hub_leaf = graph.channels[0]
        graph.add_channel(hub_leaf.u, hub_leaf.v, 1.0, 1.0)
        assert classify_topology(graph) == "star"


class TestConvergence:
    def test_stable_star_converges_and_is_nash(self):
        engine = EvolutionEngine(star(4), stable_star_spec(), seed=7)
        trajectory = engine.run()
        assert trajectory.converged
        assert trajectory.epochs_run == 2  # patience epochs, both quiet
        assert trajectory.final_topology == "star"
        assert trajectory.nash_stable is True
        assert trajectory.final_max_gain == 0.0
        assert trajectory.totals["total_moves"] == 0

    def test_circle_evolves_to_stable_star(self):
        engine = EvolutionEngine(circle(5), stable_star_spec(epochs=8), seed=7)
        trajectory = engine.run()
        assert trajectory.converged
        assert trajectory.final_topology == "star"
        assert trajectory.nash_stable is True

    def test_quiet_epochs_of_live_poisson_growth_are_not_convergence(self):
        # rate 0.05 draws ~0 arrivals almost every epoch: the run must
        # still execute all epochs instead of mislabelling luck as a
        # rest point
        from repro.evolution import PoissonGrowth

        engine = EvolutionEngine(
            star(4),
            stable_star_spec(epochs=6, final_nash_check=False),
            growth=PoissonGrowth(
                rate=0.05, algorithm="random-attach", params={"k": 1},
            ),
            seed=0,
        )
        trajectory = engine.run()
        assert trajectory.epochs_run == 6
        assert not trajectory.converged

    def test_zero_rate_processes_still_allow_convergence(self):
        from repro.evolution import PoissonGrowth, UniformChurn

        engine = EvolutionEngine(
            star(4),
            stable_star_spec(),
            growth=PoissonGrowth(rate=0.0),
            churn=UniformChurn(rate=0.0),
            seed=0,
        )
        trajectory = engine.run()
        assert trajectory.converged
        assert trajectory.epochs_run == 2

    def test_non_convergence_reports_false(self):
        engine = EvolutionEngine(
            circle(5), stable_star_spec(epochs=1, final_nash_check=False),
            seed=7,
        )
        trajectory = engine.run()
        assert not trajectory.converged
        assert trajectory.epochs_run == 1
        assert trajectory.nash_stable is None


class TestFullRunDeterminism:
    def test_bit_identical_repeated_runs(self):
        first = ScenarioRunner().run(evolving_scenario())
        second = ScenarioRunner().run(evolving_scenario())
        assert first.evolution.to_json() == second.evolution.to_json()
        assert first.row == second.row

    def test_seed_changes_trajectory(self):
        first = ScenarioRunner().run(evolving_scenario(seed=7))
        second = ScenarioRunner().run(evolving_scenario(seed=8))
        assert first.evolution.to_json() != second.evolution.to_json()

    def test_arrivals_and_churn_account(self):
        result = ScenarioRunner().run(evolving_scenario())
        trajectory = result.evolution
        totals = trajectory.totals
        assert totals["total_arrivals"] == sum(
            r.arrivals for r in trajectory.records
        )
        assert totals["total_departures"] == sum(
            r.departures for r in trajectory.records
        )
        assert totals["total_arrivals"] == 5  # fixed growth, 1 per epoch
        # closure costs are realised per closed channel at onchain_fee
        assert totals["total_closure_costs"] >= 0.0
        if totals["total_departures"] == 0:
            assert totals["total_closure_costs"] == 0.0

    def test_row_columns_are_flat_scalars(self):
        row = ScenarioRunner().run(evolving_scenario()).row
        for key, value in row.items():
            assert isinstance(value, (int, float, str, bool, type(None))), (
                key, value,
            )


class TestPhases:
    def test_traffic_disabled_when_horizon_zero(self):
        engine = EvolutionEngine(
            star(4),
            stable_star_spec(traffic_horizon=0.0, final_nash_check=False),
            seed=0,
        )
        trajectory = engine.run()
        assert all(r.attempted == 0 for r in trajectory.records)
        assert all(r.total_revenue == 0.0 for r in trajectory.records)

    def test_traffic_measured_not_persisted(self):
        # the engine measures traffic on a copy: the working graph's
        # balances stay at their configured values between epochs
        graph = star(4, balance=5.0)
        engine = EvolutionEngine(
            graph, stable_star_spec(final_nash_check=False), seed=0
        )
        trajectory = engine.run()
        assert any(r.attempted > 0 for r in trajectory.records)
        for channel in engine.graph.channels:
            assert channel.balance(channel.u) == pytest.approx(5.0)
            assert channel.balance(channel.v) == pytest.approx(5.0)

    def test_empirical_provider_requires_traffic(self):
        provider = EmpiricalUtilityProvider()
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="traffic epoch"):
            provider.prepare(star(3), None, [], 0)

    def test_analytic_provider_welfare_matches_model(self):
        from repro.equilibrium import NetworkGameModel
        from repro.equilibrium.welfare import social_welfare

        model = NetworkGameModel(a=0.1, b=0.1, edge_cost=1.0, zipf_s=2.0)
        provider = AnalyticUtilityProvider(model)
        graph = star(5)
        assert provider.welfare(graph) == pytest.approx(
            social_welfare(graph, model)
        )

    def test_trajectory_json_shape(self):
        trajectory = ScenarioRunner().run(evolving_scenario()).evolution
        doc = trajectory.to_dict()
        assert doc["epochs_run"] == len(doc["epochs"])
        for record in doc["epochs"]:
            assert set(record) >= {
                "epoch", "nodes", "channels", "arrivals", "departures",
                "closure_costs", "success_rate", "revenue_gini", "moves",
                "max_gain", "welfare", "topology", "move_log",
            }
            assert not math.isnan(record["welfare"])


class TestTotals:
    """Revenue and fee totals whose left-to-right sum differs from the
    compensated one Python 3.12's ``sum()`` returns: 0.1 + 0.2 + 0.3."""

    TERMS = {"a": 0.1, "b": 0.2, "c": 0.3}

    def test_terms_round_differently(self):
        assert math.fsum(self.TERMS.values()) == 0.6

    @staticmethod
    def welfare(metrics: SimulationMetrics) -> float:
        graph = ChannelGraph()
        provider = EmpiricalUtilityProvider(edge_cost=0.0)
        provider.prepare(graph, metrics, [], seed=0)
        return provider.welfare(graph)

    def test_empirical_welfare_revenue_adds_left_to_right(self):
        metrics = SimulationMetrics(revenue=dict(self.TERMS))
        assert self.welfare(metrics) == 0.6000000000000001

    def test_empirical_welfare_fees_add_left_to_right(self):
        metrics = SimulationMetrics(fees_paid=dict(self.TERMS))
        assert self.welfare(metrics) == -0.6000000000000001

    def test_epoch_total_revenue_adds_left_to_right(self):
        engine = EvolutionEngine(path(3), stable_star_spec(epochs=1))
        traffic = SimulationMetrics(revenue=dict(self.TERMS))
        engine._traffic_phase = lambda epoch_seed: (traffic, [])
        (record,) = engine.run().records
        assert record.total_revenue == 0.6000000000000001
