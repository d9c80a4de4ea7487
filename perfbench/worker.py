"""One in-process workload in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``. It
imports ``repro.cli`` (what every CLI user pays), prepares the workload's
Scenario documents, prints ``READY <import seconds>`` and then runs a
closed loop of ``ScenarioRunner.run`` calls, one at a time, until the run
length is spent and at least ``workloads.MIN_CYCLES`` cycles of the seed
pool are done. Every operation's output is checked against its pinned
value. The last stdout line is a JSON summary for ``run.py``.

With ``--trace 1`` the loop runs twice over the same operation seeds: once
plain, then with the layer shims of :mod:`shims` installed and an enabled
``ObsSession``, so the program's own phase timers and counters are read
too. The shims are removed before the summary is printed.

``--setup-only`` stops after ``READY``; ``--pin`` prints the outputs of the
whole seed pool instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

import shims
import workloads

#: Counters the program publishes through an enabled ObsSession, reported
#: per operation in the traced run.
PROGRAM_COUNTERS = (
    "fastpath.payments",
    "fastpath.epochs",
    "fastpath.conflicts",
    "fastpath.tree_builds",
    "fastpath.tree_hits",
    "fastpath.mask_builds",
    "htlc.locks",
    "htlc.settles",
    "htlc.slot_exhaustion",
)

#: The program's attack phase timers -> per-layer metric names.
ATTACK_PHASES = {
    "attack.setup": "attacks.setup_s",
    "attack.baseline": "attacks.baseline_s",
    "attack.attacked": "attacks.attacked_s",
}


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


class Loop:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, workload: str, pinned: Dict[str, Any]) -> None:
        self.workload = workload
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0

    def one(self, runner: Any, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Run one operation; returns its time and checked output."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = workloads.run_operation(runner, self.workload, doc)
            elapsed = time.perf_counter() - started
            got = workloads.digest_of(self.workload, result)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return {"seconds": time.perf_counter() - started, "ok": False}
        ok = workloads.matches(self.workload, got, self.pinned[str(doc["seed"])])
        if not ok:
            print(f"output mismatch for seed {doc['seed']}: {got}", file=sys.stderr)
            self.failed += 1
        return {"seconds": elapsed, "ok": ok, "out": got}

    def until(self, runner_for: Any, docs: List[Dict[str, Any]], seconds: float,
              at_least: int = 0, calibration: Optional[List[float]] = None,
              ) -> List[Dict[str, Any]]:
        """Run ``docs`` cyclically for ``seconds`` and at least ``at_least`` times.

        With ``calibration``, the calibration kernel runs after every
        operation and its times are appended there.
        """
        done: List[Dict[str, Any]] = []
        started = time.perf_counter()
        while len(done) < at_least or time.perf_counter() - started < seconds:
            doc = docs[len(done) % len(docs)]
            done.append(dict(self.one(runner_for(len(done)), doc), seed=doc["seed"]))
            if calibration is not None:
                calibration.append(workloads.calibration_kernel())
        return done


def traced_phase(loop: Loop, docs: List[Dict[str, Any]], count: int,
                 runner_cls: Any, session_cls: Any) -> Dict[str, Any]:
    """Re-run ``count`` operations with shims and obs on; gather layers."""
    rec = shims.Recorder()
    sessions: List[Any] = []

    def runner_for(index: int) -> Any:
        rec.op = index
        sessions.append(session_cls(enabled=True))
        return runner_cls(obs=sessions[-1])

    uninstall = shims.install_program_shims(rec)
    try:
        ops = loop.until(runner_for, docs, 0.0, at_least=count)
    finally:
        uninstall()
    counters: Dict[str, float] = defaultdict(float)
    phases: Dict[str, float] = defaultdict(float)
    for session in sessions:
        snapshot = session.registry.snapshot().get("counters", {})
        for name, value in snapshot.items():
            key = "htlc.lock_failed" if name.startswith("htlc.lock_failed.") else name
            counters[key] += value
        for name, value in session.phase_seconds.items():
            phases[name] += value
    return {"ops": ops, "spans": rec.spans, "counts": dict(rec.counts),
            "counters": dict(counters), "phases": dict(phases)}


def layer_metrics(plain: List[Dict[str, Any]], traced: Dict[str, Any],
                  import_s: float) -> Dict[str, float]:
    """Per-operation layer numbers from the traced phase."""
    ops = traced["ops"]
    wall = sum(op["seconds"] for op in ops)
    out = shims.layer_table(traced["spans"], traced["counts"], len(ops), wall)
    for name in PROGRAM_COUNTERS + ("htlc.lock_failed",):
        out[name] = traced["counters"].get(name, 0.0) / len(ops)
    for phase, metric in ATTACK_PHASES.items():
        out[metric] = traced["phases"].get(phase, 0.0) / len(ops)
    out["setup.import_s"] = import_s
    out["obs.trace_overhead"] = wall / sum(op["seconds"] for op in plain[:len(ops)])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.IN_PROCESS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--pinned", type=Path, default=workloads.PINNED)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every CLI user pays)

    import_s = time.perf_counter() - started
    from repro.obs import ObsSession
    from repro.scenarios.runner import ScenarioRunner

    seeds = workloads.operation_seeds(args.workload, args.size, args.seed)
    docs = [workloads.scenario_doc(args.workload, args.size, s) for s in seeds]
    if args.pin:
        runner = ScenarioRunner()
        pinned = {}
        for doc in sorted(docs, key=lambda d: d["seed"]):
            got = workloads.digest_of(
                args.workload, workloads.run_operation(runner, args.workload, doc)
            )
            got.pop("work")
            pinned[str(doc["seed"])] = got
        print(json.dumps(pinned))
        return 0
    pinned = workloads.load_pinned(args.pinned)[args.size][args.workload]
    print(f"READY {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(args.workload, pinned)
    plain_runner = ScenarioRunner()
    # One untimed operation lets lazy imports and caches settle.
    loop.one(plain_runner, docs[-1])
    summary: Dict[str, Any] = {}
    if args.trace:
        plain = loop.until(lambda _: plain_runner, docs, args.seconds / 2)
        traced = traced_phase(loop, docs, len(plain), ScenarioRunner, ObsSession)
        mismatched = sum(
            a.get("out") != b.get("out") for a, b in zip(plain, traced["ops"])
        )
        if mismatched:
            print(f"{mismatched} traced outputs differ from untraced ones",
                  file=sys.stderr)
            loop.failed += mismatched
        summary["layers"] = layer_metrics(plain, traced, import_s)
    else:
        calibration: List[float] = []
        ops = loop.until(lambda _: plain_runner, docs, args.seconds,
                         at_least=workloads.MIN_CYCLES * len(docs),
                         calibration=calibration)
        summary["calibration_s"] = calibration
        summary["op_seconds"] = [op["seconds"] for op in ops]
        summary["work"] = [op.get("out", {}).get("work", 0) for op in ops]
    summary.update(attempted=loop.attempted, failed=loop.failed,
                   peak_rss_mb=peak_rss_mb(), import_s=import_s)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
