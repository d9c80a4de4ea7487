#!/usr/bin/env python3
"""The repository benchmark: four user paths, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload join-greedy --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/NOTES.md):

* ``join-greedy``    - greedy joining-strategy solves (Section III),
* ``simulate-large`` - ``run-scenario`` simulations on a 200-node graph,
* ``attack-htlc``    - slow-jamming attack scenarios in HTLC mode,
* ``service-mixed``  - a ``repro serve`` daemon under a cached reader and
  a cold writer, two connections at once.

The program runs from the checkout's ``src`` directory in child
processes; this process imports nothing from it. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. The last stdout line is the JSON result; the lines before it
carry the machine fingerprint and the workload's metrics under the names
used in NOTES.md. Any failed operation or output mismatch makes the exit
code non-zero.

``--pin`` recomputes ``perfbench/pinned.json`` from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import queue
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import shims  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
#: Stores and trace files of the running benchmark (listed in .gitignore).
WORK = ROOT / ".perfbench"
READY = re.compile(r"listening on ([\d.]+):(\d+)")
SETUP_SAMPLES = 5
#: The service reader times the calibration kernel before every this many
#: cached submits.
KERNEL_EVERY = 10
#: The daemon's peak RSS is read after this many writer submits. Every
#: stored job keeps its result, so the daemon grows ~0.5 MB per cold
#: submit; read at the end of the run, the peak would count how many
#: submits the machine managed rather than what each one costs.
RSS_AFTER_COLD = 40


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- child processes -----------------------------------------------------------


def cpu_jiffies() -> Tuple[int, int]:
    """(steal, busy) jiffies of the whole machine, from ``/proc/stat``.

    Busy counts every CPU state but idle and iowait. Steal is the part of
    it the hypervisor gave to other guests: on a shared host it swings
    from 0 to a fifth of busy time within minutes, and every process of
    the program slows by that share.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields) - fields[3] - fields[4]


def unstolen_share(since: Tuple[int, int]) -> float:
    """The share of the machine's busy time since ``since`` not stolen.

    Times scaled by it read as on a host that steals nothing. It does not
    depend on how busy the program keeps the machine, since steal only
    accrues while a CPU has work.
    """
    steal, busy = cpu_jiffies()
    return 1.0 - (steal - since[0]) / max(1, busy - since[1])


class Child:
    """A child process in its own process group, read line by line."""

    def __init__(self, cmd: List[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.jiffies = cpu_jiffies()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.last: Optional[str] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, pattern: "re.Pattern[str]", timeout: float) -> "re.Match[str]":
        """Wait for a stdout line matching ``pattern``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise BenchError(f"timed out waiting for {pattern.pattern!r}") from None
            if line is None:
                raise BenchError(f"child exited before {pattern.pattern!r}")
            self.last = line
            match = pattern.search(line)
            if match:
                return match

    def elapsed(self) -> float:
        """Seconds since the spawn, less the share the host stole."""
        return (time.perf_counter() - self.started) * unstolen_share(self.jiffies)

    def finish(self, timeout: float) -> str:
        """Wait for a clean exit; returns the last stdout line."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("child did not finish in time") from None
        self._reader.join(timeout=5)
        while True:
            try:
                line = self.lines.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                self.last = line
        if code != 0:
            raise BenchError(f"child exited with code {code}")
        return self.last or ""

    def stop(self) -> None:
        """End the child and everything it started; wait for them."""
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
        self.proc.wait()
        if self.proc.stdout is not None:
            self._reader.join(timeout=5)
            self.proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM not reported")


# -- in-process workloads ------------------------------------------------------


def worker_cmd(args: argparse.Namespace, workload: str, *extra: str) -> List[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
        "--pinned", str(args.pinned), *extra,
    ]


def setup_probe(args: argparse.Namespace, workload: str) -> Tuple[float, float]:
    """Fresh interpreter: (spawn-to-ready seconds, its import seconds)."""
    child = Child(worker_cmd(args, workload, "--setup-only"))
    try:
        match = child.expect(re.compile(r"^READY (\S+)$"), 120)
        elapsed = child.elapsed()
        child.finish(30)
    finally:
        child.stop()
    return elapsed, float(match.group(1))


def run_in_process(args: argparse.Namespace) -> Dict[str, Any]:
    child = Child(worker_cmd(args, args.workload))
    try:
        child.expect(re.compile(r"^READY "), 120)
        setups = [child.elapsed()]
        summary = json.loads(child.finish(160))
    finally:
        child.stop()
    if args.trace:
        summary["layers"]["setup.daemon_ready_s"] = 0.0
        return summary
    setups += [setup_probe(args, args.workload)[0] for _ in range(SETUP_SAMPLES - 1)]
    # Whole cycles of the seed pool only, so every run weighs the same inputs.
    pool = workloads.POOL_SIZE[args.size][args.workload]
    whole = len(summary["op_seconds"]) // pool * pool
    if whole < workloads.MIN_CYCLES * pool:
        raise BenchError(f"only {whole} operations in whole cycles of {pool}")
    ops = summary["op_seconds"][:whole]
    rate = sum(summary["work"][:whole]) / sum(ops)
    named: Dict[str, Tuple[float, str]] = {
        "join-greedy": {"join_solve_s_p50": (statistics.median(ops), "s")},
        "simulate-large": {"sim_payments_per_s": (rate, "payments/s")},
        "attack-htlc": {"attack_events_per_s": (rate, "events/s")},
    }[args.workload]
    kernel_s = statistics.median(summary["calibration_s"])
    named.update(
        op_samples=(len(ops), "count"),
        calibration_kernel_ms=(1000.0 * kernel_s, "ms"),
    )
    summary["named"] = named
    # Operation times at the reference machine speed: a run on a machine
    # momentarily 20% slower reads the same as one on the reference
    # machine (see workloads.calibration_kernel).
    speed = workloads.REFERENCE_KERNEL_S / kernel_s
    summary["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": summary["peak_rss_mb"],
        "op_ms_p50": 1000.0 * statistics.median(ops) * speed,
        "work_per_s": rate / speed,
    }
    return summary


# -- the scenario service ------------------------------------------------------


class Connection:
    """One persistent client connection speaking the daemon's line protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.buffer = b""

    def request(self, payload: bytes) -> Tuple[float, bytes]:
        """Send one request line; returns (round-trip seconds, response line)."""
        started = time.perf_counter()
        self.sock.sendall(payload)
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return time.perf_counter() - started, line

    def close(self) -> None:
        self.sock.close()


def submit_payload(doc: Dict[str, Any]) -> bytes:
    return json.dumps({"cmd": "submit", "scenario": doc, "wait": True}).encode() + b"\n"


def result_bytes(line: bytes) -> bytes:
    """The ``result`` member of a submit response, byte for byte.

    The daemon writes ``ok, hash, state, result`` in that order, so the
    result document is the rest of the line from its key on.
    """
    return line[line.index(b'"result": '):]


class Daemon:
    """A ``repro serve`` process on a fresh store, removed on stop."""

    def __init__(self, traced: bool, trace_dir: Optional[Path] = None) -> None:
        WORK.mkdir(exist_ok=True)
        self.store = WORK / f"store-{os.getpid()}-{time.perf_counter_ns()}"
        if traced:
            cmd = [sys.executable, str(HERE / "serve.py"), "--store", str(self.store),
                   "--trace-dir", str(trace_dir)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", "1", "--store", str(self.store)]
        self.child = Child(cmd)
        print(f"daemon pid {self.child.proc.pid} store {self.store}", file=sys.stderr)
        try:
            self.port = int(self.child.expect(READY, 120).group(2))
        except BaseException:
            self.stop()
            raise
        self.ready_s = self.child.elapsed()

    def command(self, cmd: str) -> Dict[str, Any]:
        conn = Connection(self.port)
        try:
            response = json.loads(conn.request(json.dumps({"cmd": cmd}).encode() + b"\n")[1])
        finally:
            conn.close()
        if not response.get("ok"):
            raise BenchError(f"daemon refused {cmd}: {response.get('error')}")
        return response

    def stop(self) -> None:
        """Shut down, wait for every process, and remove the store."""
        try:
            if self.child.proc.poll() is None and hasattr(self, "port"):
                try:
                    self.command("shutdown")
                    self.child.proc.wait(timeout=20)
                except (OSError, BenchError, subprocess.TimeoutExpired):
                    pass
        finally:
            self.child.stop()
            shutil.rmtree(self.store, ignore_errors=True)


class Mixed:
    """The reader/writer mix against one daemon, with output checks."""

    def __init__(self, daemon: Daemon, args: argparse.Namespace) -> None:
        self.daemon = daemon
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()
        self.cold: Dict[str, bytes] = {}
        self.warm_docs: List[Dict[str, Any]] = []
        self.cached_s: List[float] = []
        self.cold_s: List[float] = []
        self.cold_results: List[bytes] = []
        self.response_bytes = 0
        self.kernel_s: List[float] = []
        self.rss_mb: Optional[float] = None

    def _fail(self, why: str) -> None:
        print(f"service operation failed: {why}", file=sys.stderr)
        with self.lock:
            self.failed += 1

    def _submit(self, conn: Connection, doc: Dict[str, Any], state: str
                ) -> Optional[Tuple[float, bytes, Dict[str, Any]]]:
        with self.lock:
            self.attempted += 1
        try:
            seconds, line = conn.request(submit_payload(doc))
            response = json.loads(line)
        except (OSError, ValueError) as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        if not response.get("ok") or response.get("state") != state:
            self._fail(f"expected state {state}, got {str(response)[:200]}")
            return None
        with self.lock:
            self.response_bytes += len(line) + 1
        return seconds, line, response

    def warm(self) -> None:
        """Store K results; their responses are the cold reference bytes."""
        size = workloads.SIZES[self.args.size]["service-mixed"]
        conn = Connection(self.daemon.port)
        try:
            for index in range(size["warm"]):
                doc = workloads.scenario_doc(
                    "service-mixed", self.args.size,
                    workloads.derive(self.args.seed, "warm", index),
                )
                done = self._submit(conn, doc, "done")
                if done is not None:
                    self.cold[done[2]["hash"]] = result_bytes(done[1])
                    self.warm_docs.append(doc)
        finally:
            conn.close()
        if not self.warm_docs:
            raise BenchError("no result could be warmed")

    def _reader(self, deadline: float) -> None:
        conn = Connection(self.daemon.port)
        try:
            index = 0
            while time.perf_counter() < deadline:
                # The calibration kernel runs while the writer's job keeps
                # the other CPU busy, as it is during a cached read.
                if index % KERNEL_EVERY == 0:
                    self.kernel_s.append(workloads.calibration_kernel())
                doc = self.warm_docs[index % len(self.warm_docs)]
                index += 1
                done = self._submit(conn, doc, "cached")
                if done is None:
                    continue
                if result_bytes(done[1]) != self.cold[done[2]["hash"]]:
                    self._fail(f"cached bytes differ for {done[2]['hash'][:12]}")
                    continue
                self.cached_s.append(done[0])
        finally:
            conn.close()

    def _writer(self, deadline: float) -> None:
        conn = Connection(self.daemon.port)
        try:
            index = 0
            # Runs on past the deadline until the RSS reading is taken.
            while time.perf_counter() < deadline or index < RSS_AFTER_COLD:
                doc = workloads.scenario_doc(
                    "service-mixed", self.args.size,
                    workloads.derive(self.args.seed, "cold", index),
                )
                index += 1
                done = self._submit(conn, doc, "done")
                if index == RSS_AFTER_COLD:
                    self.rss_mb = peak_rss_mb(self.daemon.child.proc.pid)
                if done is not None:
                    self.cold_s.append(done[0])
                    self.cold_results.append(result_bytes(done[1]))
        finally:
            conn.close()

    def run(self, seconds: float) -> None:
        self.warm()
        deadline = time.perf_counter() + seconds
        errors: List[BaseException] = []

        def guarded(target: Callable[[float], None]) -> None:
            try:
                target(deadline)
            except BaseException as exc:  # reported by the joining thread
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(t,))
                   for t in (self._reader, self._writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise BenchError("a client connection did not finish")
        if errors:
            raise BenchError(f"client failed: {errors[0]!r}")
        if not self.cached_s or not self.cold_s:
            raise BenchError("the mix completed no cached or no cold submit")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(samples: int) -> Optional[float]:
    """The highest usual percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if samples * (1 - q / 100.0) >= 10:
            return q
    return None


def queue_wait_p50(prometheus: str) -> float:
    """Median queued->running wait from the daemon's histogram buckets."""
    buckets: List[Tuple[float, float]] = []
    for line in prometheus.splitlines():
        match = re.match(r'\S*queue_latency_seconds_bucket\{le="([^"]+)"\} (\S+)', line)
        if match:
            buckets.append((float(match.group(1)), float(match.group(2))))
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    half = buckets[-1][1] / 2.0
    return next(bound for bound, count in buckets if count >= half)


def run_service(args: argparse.Namespace) -> Dict[str, Any]:
    if args.trace:
        return run_service_traced(args)
    setups: List[float] = []
    daemon = Daemon(traced=False)
    try:
        setups.append(daemon.ready_s)
        mix = Mixed(daemon, args)
        mix.run(args.seconds)
    finally:
        daemon.stop()
    for _ in range(SETUP_SAMPLES - 1):
        probe = Daemon(traced=False)
        probe.stop()
        setups.append(probe.ready_s)
    named: Dict[str, Tuple[float, str]] = {
        "submit_cached_ms_p50": (1000.0 * statistics.median(mix.cached_s), "ms"),
        "submit_cold_ms_p50": (1000.0 * statistics.median(mix.cold_s), "ms"),
        "cached_samples": (len(mix.cached_s), "count"),
        "cold_samples": (len(mix.cold_s), "count"),
        "calibration_kernel_ms": (1000.0 * statistics.median(mix.kernel_s), "ms"),
    }
    speed = workloads.REFERENCE_KERNEL_S / statistics.median(mix.kernel_s)
    tail = tail_percentile(len(mix.cached_s))
    if tail is not None:
        name = f"submit_cached_ms_p{tail:g}".replace(".", "_")
        named[name] = (1000.0 * percentile(mix.cached_s, tail), "ms")
    return {
        "attempted": mix.attempted,
        "failed": mix.failed,
        "named": named,
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": mix.rss_mb,
            "op_ms_p50": 1000.0 * statistics.median(mix.cached_s) * speed,
            "work_per_s": 1.0 / (statistics.median(mix.cold_s) * speed),
        },
    }


def run_service_traced(args: argparse.Namespace) -> Dict[str, Any]:
    """Plain daemon for half the run, then a traced one on the same inputs."""
    half = args.seconds / 2
    daemon = Daemon(traced=False)
    try:
        plain = Mixed(daemon, args)
        plain.run(half)
        pings = Connection(daemon.port)
        try:
            ping_s = [pings.request(b'{"cmd": "ping"}\n')[0] for _ in range(200)]
        finally:
            pings.close()
        stats = daemon.command("stats")["queue"]
        wait_p50 = queue_wait_p50(daemon.command("metrics")["metrics"])
    finally:
        daemon.stop()
    ready_s = daemon.ready_s

    trace_dir = WORK / f"trace-{os.getpid()}-{time.perf_counter_ns()}"
    trace_dir.mkdir(parents=True)
    try:
        daemon = Daemon(traced=True, trace_dir=trace_dir)
        try:
            traced = Mixed(daemon, args)
            traced.run(half)
        finally:
            daemon.stop()
        spans: List[List[Any]] = []
        counts: Dict[str, float] = {}
        for path in sorted(trace_dir.iterdir()):
            text = path.read_text(encoding="utf-8")
            for record in map(json.loads, text.splitlines()):
                # Span parents index into their own process's list.
                offset = len(spans)
                spans += [[n, s, e, None if p is None else p + offset, o]
                          for n, s, e, p, o in record["spans"]]
                for name, value in record["counts"].items():
                    counts[name] = counts.get(name, 0.0) + value
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    failed = plain.failed + traced.failed
    if traced.cold != plain.cold:
        print("traced warm-up results differ from untraced ones", file=sys.stderr)
        failed += 1
    common = min(len(plain.cold_results), len(traced.cold_results))
    if traced.cold_results[:common] != plain.cold_results[:common]:
        print("traced cold results differ from untraced ones", file=sys.stderr)
        failed += 1
    ops = len(traced.cached_s) + len(traced.cold_s)
    wall = sum(traced.cached_s) + sum(traced.cold_s)
    plain_wall = sum(plain.cached_s) + sum(plain.cold_s)
    plain_ops = len(plain.cached_s) + len(plain.cold_s)
    layers = shims.layer_table(spans, counts, ops, wall)
    completed = stats["cached"] + stats["done"]
    layers.update({
        "setup.daemon_ready_s": ready_s,
        # Every workload pays the same import of repro.cli.
        "setup.import_s": setup_probe(args, "join-greedy")[1],
        "service.response_bytes": traced.response_bytes / traced.attempted,
        "service.queue_wait_s_p50": wait_p50,
        "service.store_hit_ratio": stats["cached"] / completed if completed else 0.0,
        "service.ping_ms_p50": 1000.0 * statistics.median(ping_s),
        "obs.trace_overhead": (wall / ops) / (plain_wall / plain_ops),
    })
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "layers": layers,
    }


# -- reporting -----------------------------------------------------------------


def source_digest() -> str:
    """sha256 over the program's source files (the checkout is no git repo)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "trace": bool(args.trace),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def declared_metrics(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pin(args: argparse.Namespace) -> int:
    """Recompute pinned.json from the current program (all pool seeds)."""
    pinned: Dict[str, Dict[str, Any]] = {}
    for size in sorted(workloads.SIZES):
        pinned[size] = {}
        for workload in workloads.IN_PROCESS:
            child = Child([sys.executable, str(HERE / "worker.py"), "--workload",
                           workload, "--size", size, "--pin"])
            try:
                pinned[size][workload] = json.loads(child.finish(3600))
            finally:
                child.stop()
            print(f"pinned {size} {workload}", file=sys.stderr)
    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'toy' is for the self-test")
    parser.add_argument("--pinned", type=Path, default=workloads.PINNED,
                        help="pinned outputs to check against")
    parser.add_argument("--pin", action="store_true", help="rewrite pinned.json")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    # A terminated benchmark still stops its daemons and removes their stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.pin:
        return pin(args)
    if args.workload is None:
        parser.error("--workload is required")
    units = declared_metrics(args.trace)
    try:
        if args.workload == "service-mixed":
            summary = run_service(args)
        else:
            summary = run_in_process(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = summary["layers"] if args.trace else summary["metrics"]
    missing = sorted(set(units) - set(values))
    unexpected = sorted(set(values) - set(units))
    if unexpected:
        print(f"error: metrics not declared in BENCHMARK.json: {unexpected}",
              file=sys.stderr)
        return 1
    print("fingerprint " + json.dumps(fingerprint(args), sort_keys=True))
    if not args.trace:
        named = dict(summary["named"])
        named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
        named["error_rate"] = (summary["failed"] / summary["attempted"], "ratio")
        print("named " + json.dumps(
            {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
            sort_keys=True))
    correct = summary["failed"] == 0
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    if missing and args.trace:
        # A layer the workload never enters reads zero.
        print("layers not entered: " + ", ".join(missing))
    elif missing:
        print(f"error: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
