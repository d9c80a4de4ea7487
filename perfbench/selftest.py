#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes; takes a few minutes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* every workload, untraced and traced, exits 0 and prints every metric
  BENCHMARK.json declares, with its unit;
* a tampered pinned output fails the correctness gate (non-zero exit,
  ``"correct": false``);
* a service run that fails after warm-up (``--seconds 0``) still shuts
  its daemon down and removes its store directory;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT, seconds: int = 2) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "5",
         "--seconds", str(seconds), "--size", "toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> Optional[Dict[str, Any]]:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(workload: str, trace: int) -> List[str]:
    proc = bench("--workload", workload, "--trace", str(trace))
    result = result_of(proc)
    if proc.returncode != 0 or result is None:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: {got}")
    if len(result["metrics"]) != len(declared):
        problems.append("undeclared metrics printed")
    return problems


def check_tampered(workload: str) -> List[str]:
    pinned = workloads.load_pinned()
    entry = next(iter(pinned["toy"][workload].values()))
    if "digest" in entry:
        entry["digest"] = "0" * 64
    else:
        entry["channels"] = entry["channels"][1:]
    tampered = WORK / "tampered-pinned.json"
    tampered.write_text(json.dumps(pinned), encoding="utf-8")
    try:
        proc = bench("--workload", workload, "--pinned", str(tampered))
    finally:
        tampered.unlink()
    result = result_of(proc)
    if proc.returncode == 0 or result is None or result["correct"]:
        return [f"tampered output passed (exit {proc.returncode})"]
    return []


def check_service_cleanup() -> List[str]:
    # With no time to run, the reader completes no submit and the mix fails.
    proc = bench("--workload", "service-mixed", seconds=0)
    problems = []
    if proc.returncode == 0:
        problems.append("a run with no submits exited 0")
    daemons = re.findall(r"daemon pid (\d+) store (\S+)", proc.stderr)
    if not daemons:
        problems.append("no daemon was started")
    for pid, store in daemons:
        try:
            os.kill(int(pid), 0)
            problems.append(f"daemon {pid} still running")
        except ProcessLookupError:
            pass
        if Path(store).exists():
            problems.append(f"store {store} left behind")
    return problems


def check_bare_directory() -> List[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "join-greedy", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    WORK.mkdir(exist_ok=True)
    checks = [(f"metrics {w} trace {t}", lambda w=w, t=t: check_metrics(w, t))
              for w in workloads.WORKLOADS for t in (0, 1)]
    checks += [(f"tampered {w}", lambda w=w: check_tampered(w))
               for w in workloads.IN_PROCESS]
    checks += [("service cleanup on failure", check_service_cleanup),
               ("bare directory", check_bare_directory)]
    failed = 0
    for name, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}", flush=True)
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
