"""The shared perf-regression gate (benchmarks/perf/gate.py)."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
GATE = REPO / "benchmarks" / "perf" / "gate.py"

spec = importlib.util.spec_from_file_location("perf_gate", GATE)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def doc(benchmark, rows):
    return {"benchmark": benchmark, "results": rows}


def obs_row(payments_per_sec_off):
    """An ``obs`` row at n=200 whose on/off ratio holds at 1.0."""
    return {
        "n": 200,
        "throughput_ratio": 1.0,
        "payments_per_sec_off": payments_per_sec_off,
    }


class TestCheckFloors:
    def test_passes_within_floor(self):
        baseline = doc("obs", [obs_row(2000.0)])
        results = doc("obs", [obs_row(500.0)])
        assert gate.check_floors(results, baseline, 0.7, 0.1) == []

    def test_fails_below_relative_floor(self):
        baseline = doc("graphcore", [
            {"workload": "greedy_join", "n": 100, "speedup": 6.0},
        ])
        results = doc("graphcore", [
            {"workload": "greedy_join", "n": 100, "speedup": 3.0},
        ])
        failures = gate.check_floors(results, baseline, 0.7, 0.1)
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_missing_metric_fails_loudly(self):
        """A renamed/dropped metric must not silently disable its floor."""
        baseline = doc("obs", [obs_row(2000.0)])
        results = doc("obs", [
            {"n": 200, "throughput_ratio": 1.0, "payments": 2945},
        ])
        failures = gate.check_floors(results, baseline, 0.7, 0.1)
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_fails_below_absolute_floor(self):
        baseline = doc("attacks", [
            {"strategy": "slow-jamming", "leaves": 16,
             "attacker_events_per_sec": 30000.0},
        ])
        results = doc("attacks", [
            {"strategy": "slow-jamming", "leaves": 16,
             "attacker_events_per_sec": 1000.0},
        ])
        failures = gate.check_floors(results, baseline, 0.7, 0.1)
        assert len(failures) == 1
        assert "attacker_events_per_sec" in failures[0]

    def test_unmatched_rows_are_skipped_but_one_must_match(self):
        baseline = doc("graphcore", [
            {"workload": "pair_weighted_betweenness", "n": 100,
             "speedup": 2.0},
        ])
        results = doc("graphcore", [
            {"workload": "pair_weighted_betweenness", "n": 100,
             "speedup": 1.9},
            {"workload": "pair_weighted_betweenness", "n": 200,
             "speedup": 0.1},  # no baseline row -> not gated
        ])
        assert gate.check_floors(results, baseline, 0.7, 0.1) == []

    def test_no_matches_is_a_failure(self):
        baseline = doc("graphcore", [
            {"workload": "greedy_join", "n": 500, "speedup": 1.7},
        ])
        results = doc("graphcore", [
            {"workload": "greedy_join", "n": 100, "speedup": 1.7},
        ])
        failures = gate.check_floors(results, baseline, 0.7, 0.1)
        assert len(failures) == 1
        assert "no result row matches" in failures[0]

    def test_benchmark_mismatch(self):
        failures = gate.check_floors(
            doc("obs", []), doc("attacks", []), 0.7, 0.1
        )
        assert "mismatch" in failures[0]


class TestCli:
    def run_gate(self, tmp_path, results, baseline, *extra):
        results_path = tmp_path / "results.json"
        baseline_path = tmp_path / "baseline.json"
        results_path.write_text(json.dumps(results))
        baseline_path.write_text(json.dumps(baseline))
        return subprocess.run(
            [sys.executable, str(GATE), "--results", str(results_path),
             "--baseline", str(baseline_path), *extra],
            capture_output=True, text=True,
        )

    def test_cli_pass(self, tmp_path):
        baseline = doc("obs", [obs_row(2000.0)])
        results = doc("obs", [obs_row(1900.0)])
        proc = self.run_gate(tmp_path, results, baseline)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "gate passed" in proc.stdout

    def test_cli_fail(self, tmp_path):
        baseline = doc("obs", [obs_row(2000.0)])
        results = doc("obs", [obs_row(100.0)])
        proc = self.run_gate(tmp_path, results, baseline)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_cli_custom_floor(self, tmp_path):
        baseline = doc("graphcore", [
            {"workload": "greedy_join", "n": 100, "speedup": 6.0},
        ])
        results = doc("graphcore", [
            {"workload": "greedy_join", "n": 100, "speedup": 1.0},
        ])
        proc = self.run_gate(
            tmp_path, results, baseline, "--floor-relative", "0.1"
        )
        assert proc.returncode == 0

    def test_gate_accepts_committed_baselines(self):
        """The committed BENCH files gate cleanly against themselves."""
        for name in ("graphcore", "attacks", "evolution", "obs"):
            path = REPO / f"BENCH_{name}.json"
            if not path.exists():
                pytest.skip(f"{path.name} not committed yet")
            document = json.loads(path.read_text())
            assert gate.check_floors(document, document, 0.7, 0.1) == []


class TestEvolutionBenchmark:
    def test_registered_with_absolute_throughput_floor(self):
        key_fields, relative, absolute = gate.BENCHMARKS["evolution"]
        assert key_fields == ("n",)
        assert absolute == ("epochs_per_sec",)

    def test_gates_epochs_per_sec(self):
        baseline = doc("evolution", [
            {"n": 500, "epochs_per_sec": 0.3},
        ])
        ok = doc("evolution", [{"n": 500, "epochs_per_sec": 0.05}])
        assert gate.check_floors(ok, baseline, 0.7, 0.1) == []
        slow = doc("evolution", [{"n": 500, "epochs_per_sec": 0.01}])
        failures = gate.check_floors(slow, baseline, 0.7, 0.1)
        assert len(failures) == 1
        assert "epochs_per_sec" in failures[0]

    def test_committed_baseline_matches_smoke_keys(self):
        committed = json.loads((REPO / "BENCH_evolution.json").read_text())
        assert committed["benchmark"] == "evolution"
        smoke_keys = {(500,)}
        baseline_keys = {
            (row["n"],) for row in committed["results"]
        }
        assert smoke_keys <= baseline_keys


class TestObsBenchmark:
    def test_registered_with_relative_ratio_floor(self):
        key_fields, relative, absolute = gate.BENCHMARKS["obs"]
        assert key_fields == ("n",)
        # throughput_ratio (obs-on / obs-off, same machine) is the
        # hardware-independent overhead budget; raw off-throughput only
        # guards order-of-magnitude collapses.
        assert relative == ("throughput_ratio",)
        assert absolute == ("payments_per_sec_off",)

    def test_gates_overhead_ratio(self):
        baseline = doc("obs", [
            {"n": 200, "throughput_ratio": 1.0,
             "payments_per_sec_off": 5000.0},
        ])
        ok = doc("obs", [
            {"n": 200, "throughput_ratio": 0.95,
             "payments_per_sec_off": 4000.0},
        ])
        assert gate.check_floors(ok, baseline, 0.90, 0.1) == []
        slow = doc("obs", [
            {"n": 200, "throughput_ratio": 0.5,
             "payments_per_sec_off": 4000.0},
        ])
        failures = gate.check_floors(slow, baseline, 0.90, 0.1)
        assert len(failures) == 1
        assert "throughput_ratio" in failures[0]

    def test_committed_baseline_matches_smoke_keys(self):
        path = REPO / "BENCH_obs.json"
        if not path.exists():
            pytest.skip("BENCH_obs.json not committed yet")
        committed = json.loads(path.read_text())
        assert committed["benchmark"] == "obs"
        baseline_keys = {(row["n"],) for row in committed["results"]}
        assert {(200,)} <= baseline_keys  # the CI smoke case
        for row in committed["results"]:
            assert row["parity_identical"] is True
