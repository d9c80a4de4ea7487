"""ScenarioRunner: stage execution, seed derivation, executor parity."""

import pytest

from repro.errors import ScenarioError, SimulationError, UnknownPluginError
from repro.scenarios import (
    AlgorithmSpec,
    FeeSpec,
    Scenario,
    ScenarioRunner,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
    derive_seed,
)
from repro.scenarios.runner import build_topology


def sim_scenario(**overrides) -> Scenario:
    defaults = dict(
        topology=TopologySpec("ba", {"n": 15}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=4.0),
        name="sim",
        seed=5,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestRun:
    def test_topology_only(self):
        result = ScenarioRunner().run(
            Scenario(topology=TopologySpec("star", {"leaves": 6}))
        )
        assert result.graph is not None
        assert len(result.graph) == 7
        assert result.row["nodes"] == 7
        assert result.optimisation is None
        assert result.metrics is None

    def test_algorithm_stage(self):
        scenario = Scenario(
            topology=TopologySpec("ba", {"n": 12}),
            algorithm=AlgorithmSpec("greedy", {"budget": 4.0, "lock": 1.0}),
            seed=3,
        )
        result = ScenarioRunner().run(scenario)
        assert result.optimisation is not None
        assert result.optimisation.algorithm == "greedy"
        assert result.row["algorithm"] == "greedy"
        assert result.row["strategy_channels"] == len(
            result.optimisation.strategy
        )

    def test_simulation_stage(self):
        result = ScenarioRunner().run(sim_scenario())
        assert result.metrics is not None
        assert result.row["attempted"] == result.metrics.attempted
        assert 0.0 <= result.row["success_rate"] <= 1.0

    def test_workload_params_may_pin_their_own_seed(self):
        pinned = sim_scenario(
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0, "seed": 42})
        )
        row = ScenarioRunner().run(pinned).row
        reference = ScenarioRunner().run(
            sim_scenario(seed=42, workload=WorkloadSpec("poisson", {"zipf_s": 1.0}))
        ).row
        # the pinned workload seed (42) drives arrivals even though the
        # scenario seed is 5; engine seeds differ, so only compare arrivals
        assert row["attempted"] == reference["attempted"]

    def test_same_seed_reproduces(self):
        a = ScenarioRunner().run(sim_scenario()).row
        b = ScenarioRunner().run(sim_scenario()).row
        assert a == b

    def test_different_seeds_differ(self):
        a = ScenarioRunner().run(sim_scenario(seed=1)).row
        b = ScenarioRunner().run(sim_scenario(seed=2)).row
        assert a != b

    def test_file_topology_round_trip(self, tmp_path):
        from repro.snapshots import save_snapshot

        graph = build_topology(TopologySpec("ba", {"n": 9}), seed=1)
        path = tmp_path / "snap.json"
        save_snapshot(graph, path)
        loaded = ScenarioRunner().run(
            Scenario(topology=TopologySpec("file", {"path": str(path)}))
        )
        assert loaded.row["nodes"] == 9
        assert loaded.row["channels"] == graph.num_channels()

    def test_parallel_channels_refused_by_pair(self, tmp_path):
        # The simulator routes over one channel per node pair; a snapshot
        # with two channels between alice and bob is refused, naming them.
        import json

        edges = [("alice", "bob"), ("alice", "bob"), ("bob", "carol")]
        path = tmp_path / "parallel.json"
        path.write_text(json.dumps({
            "nodes": [{"pub_key": n} for n in ("alice", "bob", "carol")],
            "edges": [
                {"node1_pub": u, "node2_pub": v, "capacity": "10.0"}
                for u, v in edges
            ],
        }))
        scenario = sim_scenario(topology=TopologySpec("file", {"path": str(path)}))
        with pytest.raises(
            (SimulationError, ScenarioError), match="'alice' and 'bob'"
        ):
            ScenarioRunner().run(scenario)

    def test_unknown_topology_kind_raises(self):
        with pytest.raises(UnknownPluginError):
            ScenarioRunner().run(Scenario(topology=TopologySpec("hypercube")))

    def test_bad_algorithm_params_raise_scenario_error(self):
        scenario = Scenario(
            topology=TopologySpec("ba", {"n": 10}),
            algorithm=AlgorithmSpec("greedy", {"budget": 4.0, "bogus": 1}),
        )
        with pytest.raises(ScenarioError):
            ScenarioRunner().run(scenario)

    def test_bad_model_overrides_raise_scenario_error(self):
        scenario = Scenario(
            topology=TopologySpec("ba", {"n": 10}),
            algorithm=AlgorithmSpec(
                "greedy", {"budget": 4.0, "lock": 1.0}, model={"bogus": 1}
            ),
        )
        with pytest.raises(ScenarioError):
            ScenarioRunner().run(scenario)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_varies_with_index_and_base(self):
        seeds = {derive_seed(7, i) for i in range(50)}
        assert len(seeds) == 50
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_in_numpy_seed_range(self):
        for i in range(10):
            assert 0 <= derive_seed(123, i) < 2**31


class TestRunSweep:
    GRID = {"topology.params.n": [8, 12], "simulation.horizon": [2.0, 4.0]}

    def test_rows_follow_grid_order(self):
        rows = ScenarioRunner().run_sweep(sim_scenario(), self.GRID)
        assert [r["topology.params.n"] for r in rows] == [8, 8, 12, 12]
        assert [r["nodes"] for r in rows] == [8, 8, 12, 12]

    def test_serial_and_process_rows_identical(self):
        scenario = sim_scenario()
        serial = ScenarioRunner().run_sweep(
            scenario, self.GRID, executor="serial"
        )
        process = ScenarioRunner().run_sweep(
            scenario, self.GRID, executor="process", max_workers=2
        )
        assert serial == process

    def test_per_point_seeds_are_derived(self):
        rows = ScenarioRunner().run_sweep(sim_scenario(seed=9), self.GRID)
        assert [r["seed"] for r in rows] == [
            derive_seed(9, i) for i in range(4)
        ]

    def test_empty_grid_keeps_scenario_seed(self):
        # a degenerate sweep must agree with run() on the same scenario
        scenario = sim_scenario(seed=9)
        rows = ScenarioRunner().run_sweep(scenario, {})
        assert rows == [ScenarioRunner().run(scenario).row]

    def test_phantom_workload_rates_fail_fast(self):
        scenario = sim_scenario(
            workload=WorkloadSpec("poisson", {"rates": {"phantom": 50.0}})
        )
        with pytest.raises(ScenarioError, match="phantom"):
            ScenarioRunner().run(scenario)

    def test_explicit_seed_sweep_wins_over_derivation(self):
        rows = ScenarioRunner().run_sweep(
            sim_scenario(), {"seed": [100, 200]}
        )
        assert [r["seed"] for r in rows] == [100, 200]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioRunner().run_sweep(
                sim_scenario(), self.GRID, executor="threads"
            )

    def test_progress_callback_serial(self):
        seen = []
        ScenarioRunner().run_sweep(
            sim_scenario(),
            {"topology.params.n": [8, 12]},
            progress=lambda index, point: seen.append(index),
        )
        assert seen == [0, 1]
