"""End-to-end tests of the CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


HEAVY_MODULES = ("networkx", "scipy.stats")

#: Layers that building the CLI, importing the package and starting the
#: daemon do not run, so they must not import them either.
COMPUTE_LAYERS = ("repro.simulation", "repro.attacks", "repro.evolution")
UNUSED_LAYERS = COMPUTE_LAYERS + ("repro.service", "repro.devtools")

#: One small scenario document per synthetic generator.
GENERATOR_TOPOLOGIES = {
    "ba": {"n": 12},
    "erdos-renyi": {"n": 12, "p": 0.4},
    "core-periphery": {"core_size": 4, "periphery_size": 8},
}


def _run_scenario_probe(kind: str) -> str:
    doc = {
        "name": f"probe-{kind}",
        "seed": 3,
        "topology": {"kind": kind, "params": GENERATOR_TOPOLOGIES[kind]},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "algorithm": {"kind": "greedy", "params": {"budget": 3.0, "lock": 1.0}},
        "simulation": {"horizon": 2.0},
    }
    return (
        "from repro.scenarios import Scenario, ScenarioRunner\n"
        f"ScenarioRunner().run(Scenario.from_dict({doc!r}))\n"
        "report()"
    )


#: A greedy join, the paper's Section III solve, run as
#: ``repro run-scenario`` would run it.
GREEDY_JOIN_PROBE = (
    "import json, os, tempfile\n"
    "from repro.cli import main\n"
    "doc = {'name': 'probe-join', 'seed': 3,\n"
    "       'topology': {'kind': 'ba', 'params': {'n': 12}},\n"
    "       'algorithm': {'kind': 'greedy',\n"
    "                     'params': {'budget': 3.0, 'lock': 1.0}}}\n"
    "with tempfile.TemporaryDirectory() as tmp:\n"
    "    path = os.path.join(tmp, 'join.json')\n"
    "    with open(path, 'w') as handle:\n"
    "        json.dump(doc, handle)\n"
    "    assert main(['run-scenario', path]) == 0\n"
    "report()"
)

#: Entry point -> (probe code, modules it must leave unloaded). No entry
#: point pays for networkx or scipy.stats: the generators draw their
#: structure graphs in plain python. The package, the CLI and its help
#: load no numpy and no layer they do not run. The ``serve`` probe starts
#: a daemon as ``python -m repro serve`` does, on an ephemeral port, and
#: checks once it is listening: its workers import the compute layers.
IMPORT_PROBES = {
    "import repro": (
        "import repro\nreport()",
        HEAVY_MODULES + UNUSED_LAYERS + ("numpy",),
    ),
    "import repro.cli": (
        "import repro.cli\nreport()",
        HEAVY_MODULES + UNUSED_LAYERS + ("numpy",),
    ),
    "repro --help": (
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "report()",
        HEAVY_MODULES + UNUSED_LAYERS + ("numpy",),
    ),
    "ServiceClient": (
        "from repro.service import ServiceClient\nreport()", HEAVY_MODULES,
    ),
    "serve": (
        "import os\n"
        "import repro.cli\n"
        "from repro.service.daemon import run_server\n"
        "def ready(host, port):\n"
        "    report()\n"
        "    os._exit(0)\n"
        "run_server(port=0, workers=1, worker='process', ready=ready)",
        HEAVY_MODULES + COMPUTE_LAYERS + ("repro.devtools", "numpy"),
    ),
    "run-scenario greedy join": (
        GREEDY_JOIN_PROBE, HEAVY_MODULES + UNUSED_LAYERS,
    ),
    **{
        f"run-scenario {kind}": (_run_scenario_probe(kind), HEAVY_MODULES)
        for kind in GENERATOR_TOPOLOGIES
    },
}


def probe_code(code: str, unloaded) -> str:
    """``code`` whose ``report()`` prints which of the ``unloaded`` modules
    were imported (a package is imported with any of its submodules)."""
    return (
        "import sys\n"
        "def report():\n"
        f"    print([m for m in {tuple(unloaded)!r} if m in sys.modules], flush=True)\n"
        + code
    )


@pytest.mark.parametrize(
    "code, unloaded", IMPORT_PROBES.values(), ids=IMPORT_PROBES.keys()
)
def test_entry_point_leaves_heavy_modules_unloaded(fresh_python, code, unloaded):
    """networkx and ``scipy.stats`` are loaded only by the code that calls
    into them: ``to_networkx``, the exact betweenness oracle and the
    estimation statistics. Each entry point imports only the layers it
    runs: a registry loads its providers on first read, and the CLI
    imports a layer inside the handler that runs it."""
    assert fresh_python(probe_code(code, unloaded)) == "[]"


def test_networkx_loads_when_materialising_a_view(fresh_python):
    code = (
        "from repro.snapshots import barabasi_albert_snapshot\n"
        "graph = barabasi_albert_snapshot(10, seed=1).view().to_networkx()\n"
        "assert graph.number_of_nodes() == 10\n"
        "report()"
    )
    assert fresh_python(probe_code(code, HEAVY_MODULES)) == "['networkx']"


class TestGenerate:
    def test_generates_snapshot_file(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        code = main(["generate", "--nodes", "20", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 20
        assert "wrote snapshot" in capsys.readouterr().out


class TestJoin:
    def test_greedy_join_prints_summary(self, capsys):
        code = main(
            ["join", "--nodes", "15", "--budget", "4", "--algorithm", "greedy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[greedy]" in out
        assert "chosen channels" in out

    def test_join_on_saved_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        main(["generate", "--nodes", "12", str(snap)])
        capsys.readouterr()
        code = main(
            ["join", "--snapshot", str(snap), "--budget", "3",
             "--algorithm", "greedy"]
        )
        assert code == 0
        assert "[greedy]" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["join", "--budget", "3"],
        ["simulate", "--horizon", "2"],
        ["estimate", "--samples", "50"],
    ])
    def test_missing_snapshot_is_one_error_line(self, tmp_path, capsys,
                                                 command):
        missing = tmp_path / "missing.json"
        assert main(command + ["--snapshot", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert str(missing) in err
        assert "Traceback" not in err

    def test_continuous_join(self, capsys):
        code = main(
            ["join", "--nodes", "8", "--budget", "3",
             "--algorithm", "continuous"]
        )
        assert code == 0
        assert "[continuous]" in capsys.readouterr().out


class TestStability:
    def test_star_stable_report(self, capsys):
        code = main(
            ["stability", "star", "--size", "5", "-a", "0.1", "-b", "0.1",
             "--zipf-s", "2.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NE=True" in out
        assert "Thm 8" in out

    def test_path_unstable_report(self, capsys):
        code = main(["stability", "path", "--size", "5"])
        assert code == 0
        assert "NE=False" in capsys.readouterr().out


class TestEstimate:
    def test_round_trip_report(self, capsys):
        code = main(
            ["estimate", "--nodes", "10", "--samples", "400",
             "--zipf-s", "1.0", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated s" in out
        assert "busiest senders" in out


class TestSimulate:
    def test_simulate_reports_metrics(self, capsys):
        code = main(
            ["simulate", "--nodes", "15", "--horizon", "5", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "payments:" in out


def write_scenario(path, **overrides):
    doc = {
        "name": "cli-test",
        "seed": 4,
        "topology": {"kind": "ba", "params": {"n": 12}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}},
        "algorithm": {"kind": "greedy", "params": {"budget": 4.0, "lock": 1.0}},
        "simulation": {"horizon": 3.0},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestRunScenario:
    def test_executes_scenario_json(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json")
        code = main(["run-scenario", str(scen)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[cli-test]" in out
        assert "[greedy]" in out
        assert "payments:" in out

    def test_seed_override(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json")
        code = main(["run-scenario", str(scen), "--seed", "99"])
        assert code == 0
        assert "99" in capsys.readouterr().out

    def test_event_backend_scenario_still_runs(self, tmp_path, capsys):
        # Scenario files written for the deleted event engine load as
        # the one engine.
        scen = write_scenario(
            tmp_path / "scen.json", algorithm=None,
            simulation={"horizon": 3.0, "backend": "event"},
        )
        code = main(["run-scenario", str(scen)])
        assert code == 0
        assert "payments:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "topology, message",
        [
            ({"kind": "ba", "params": {"n": 10, "attachments": 0}},
             "attachments must be >= 1"),
            ({"kind": "ba", "params": {"n": 10, "attachments": 2.5}},
             "attachments must be an integer"),
            ({"kind": "erdos-renyi", "params": {"n": 10.5}},
             "n must be an integer"),
            ({"kind": "core-periphery", "params": {"periphery_size": -3}},
             "periphery_size must be >= 0"),
            ({"kind": "erdos-renyi", "params": {"n": 10, "p": "0.5"}},
             "p must be a number"),
            ({"kind": "ba", "params": {"n": 10, "balance_skew": 0}},
             "balance_skew must be > 0"),
        ],
    )
    def test_bad_generator_parameters_exit_2(self, tmp_path, capsys,
                                             topology, message):
        scen = write_scenario(tmp_path / "scen.json", topology=topology)
        assert main(["run-scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err


class TestSweep:
    def test_parse_grid_setting_scalars_and_json_lists(self):
        from repro.cli import _parse_grid_setting

        assert _parse_grid_setting("topology.params.n=10,20") == {
            "topology.params.n": [10, 20]
        }
        assert _parse_grid_setting("fee.kind=linear") == {"fee.kind": ["linear"]}
        # a JSON array is the explicit value list: the only way to sweep
        # list-valued parameters such as piecewise fee knots
        assert _parse_grid_setting("fee.params.knots=[[[0,0.1],[5,0.5]]]") == {
            "fee.params.knots": [[[0, 0.1], [5, 0.5]]]
        }

    def test_scenario_errors_print_cleanly(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "scen.json",
            algorithm={"kind": "no-such-algo", "params": {}},
        )
        code = main(["run-scenario", str(scen)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-algo" in err

    def test_sweep_prints_table(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json")
        code = main(
            ["sweep", str(scen), "--set", "topology.params.n=8,10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep of cli-test" in out
        assert "topology.params.n" in out

    def test_sweep_writes_json_output(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json")
        rows_path = tmp_path / "rows.json"
        code = main(
            ["sweep", str(scen), "--set", "topology.params.n=8,10",
             "--output", str(rows_path)]
        )
        assert code == 0
        rows = json.loads(rows_path.read_text())
        assert [row["nodes"] for row in rows] == [8, 10]

    def test_sweep_process_executor_matches_serial(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json")
        serial_path = tmp_path / "serial.json"
        process_path = tmp_path / "process.json"
        assert main(
            ["sweep", str(scen), "--set", "topology.params.n=8,10",
             "--output", str(serial_path)]
        ) == 0
        assert main(
            ["sweep", str(scen), "--set", "topology.params.n=8,10",
             "--executor", "process", "--workers", "2",
             "--output", str(process_path)]
        ) == 0
        assert (
            json.loads(serial_path.read_text())
            == json.loads(process_path.read_text())
        )


class TestAttack:
    def test_attack_reports_damage(self, capsys):
        code = main(
            ["attack", "--topology", "star", "--strategy", "slow-jamming",
             "--budget", "500", "--seed", "7", "--horizon", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[slow-jamming vs center]" in out
        assert "attack report" in out
        assert "victim_revenue_delta" in out

    def test_attack_is_deterministic(self, capsys):
        args = ["attack", "--topology", "star", "--strategy", "slow-jamming",
                "--budget", "1000", "--seed", "7", "--horizon", "15"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_attack_explicit_victim_on_path(self, capsys):
        code = main(
            ["attack", "--topology", "path", "--size", "6",
             "--strategy", "liquidity-depletion", "--budget", "400",
             "--victim", "v002", "--seed", "3", "--horizon", "10"]
        )
        assert code == 0
        assert "vs v002" in capsys.readouterr().out

    def test_attack_unknown_victim_errors_cleanly(self, capsys):
        code = main(
            ["attack", "--victim", "nobody", "--horizon", "5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_prints_resilience_table(self, capsys):
        code = main(
            ["attack", "--compare", "--size", "7", "--budget", "400",
             "--seed", "7", "--horizon", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NE resilience under slow-jamming" in out
        for topology in ("star", "path", "circle"):
            assert topology in out


class TestEvolve:
    def test_emits_byte_identical_json_for_fixed_seed(self, capsys):
        args = ["evolve", "--topology", "circle", "--epochs", "5",
                "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["epochs_run"] == len(doc["epochs"])
        assert doc["final_topology"] == "star"  # the attractor here

    def test_trajectory_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "trajectory.json"
        code = main(
            ["evolve", "--topology", "star", "--size", "5", "--epochs", "4",
             "--churn-rate", "0.1", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        assert "wrote trajectory" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert {"converged", "epochs", "final_topology", "totals"} <= set(doc)

    def test_empirical_utility_runs(self, capsys):
        code = main(
            ["evolve", "--topology", "circle", "--size", "5", "--epochs", "3",
             "--utility", "empirical", "--mode", "sampled", "--sample", "2",
             "--seed", "1"]
        )
        assert code == 0
        json.loads(capsys.readouterr().out)

    def test_invalid_spec_errors_with_exit_2(self, capsys):
        code = main(
            ["evolve", "--topology", "circle", "--epochs", "3",
             "--utility", "empirical", "--horizon", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "traffic_horizon" in err

    def test_invalid_topology_size_errors_cleanly(self, capsys):
        code = main(["evolve", "--topology", "circle", "--size", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_emergence_table(self, capsys):
        code = main(
            ["evolve", "--emergence", "--size", "5", "--epochs", "4",
             "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "topology emergence under evolution" in out
        for topology in ("star", "path", "circle"):
            assert topology in out


class TestObservability:
    def test_simulate_trace_out_writes_jsonl_and_leaves_output_unchanged(
        self, tmp_path, capsys
    ):
        argv = ["simulate", "--nodes", "15", "--horizon", "3", "--seed", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out

        trace = tmp_path / "trace.jsonl"
        assert main(argv + ["--trace-out", str(trace)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # tracing never changes results
        assert "trace records" in captured.err
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert any(r.get("name") == "phase" for r in records)

    def test_run_scenario_profile_prints_hotspots(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json", algorithm=None)
        code = main(["run-scenario", str(scen), "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase wall time" in out

    def test_profile_command_emits_report_telemetry_and_trace(
        self, tmp_path, capsys
    ):
        scen = write_scenario(
            tmp_path / "scen.json",
            algorithm=None,
            simulation={"horizon": 3.0, "backend": "batched"},
        )
        telemetry_path = tmp_path / "telemetry.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "profile", str(scen),
            "--output", str(telemetry_path), "--trace-out", str(trace_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "per-phase wall time" in captured.out
        assert "trace records" in captured.err
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["counters"]["fastpath.payments"] > 0
        assert trace_path.exists()

    def test_profile_matches_plain_run_results(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "scen.json", algorithm=None)
        assert main(["run-scenario", str(scen)]) == 0
        plain = capsys.readouterr().out
        assert main(["profile", str(scen)]) == 0
        profiled = capsys.readouterr().out
        # the summary line is shared verbatim between the two commands
        assert plain.splitlines()[0] == profiled.splitlines()[0]
