#!/usr/bin/env python
"""Scenario service demo: content-addressed sweeps through `repro serve`.

Starts the service daemon on an ephemeral localhost port, submits a
50-point parameter sweep **twice**, and prints the cache telemetry: the
first pass computes every point; the second pass is served entirely from
the content-addressed result store (states all ``cached``, rows
byte-identical), because each grid point's resolved scenario hashes to
the same key both times.

Run:
    python examples/serve_sweep.py

The ``--smoke`` mode is the CI service smoke test: it connects to an
*already running* daemon (``--port``), submits one tiny scenario over a
raw socket, and asserts (1) the daemon's result row matches a direct
in-process ``ScenarioRunner.run()`` and (2) resubmitting the identical
document is served from the store, its ``result`` member byte for byte
the same as the first response's.

    python -m repro serve --port 8931 --store .ci-store --worker thread &
    python examples/serve_sweep.py --smoke --port 8931
"""

import argparse
import asyncio
import json
import socket
import sys
import tempfile
import threading

from repro.scenarios import Scenario, ScenarioRunner, SimulationSpec, TopologySpec
from repro.scenarios.specs import FeeSpec, WorkloadSpec
from repro.service import ServiceClient, ServiceServer


def demo_scenario() -> Scenario:
    return Scenario(
        name="serve-sweep-demo",
        topology=TopologySpec("star", {"leaves": 4, "balance": 5.0}),
        workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=5.0),
        seed=7,
    )


#: 10 x 5 = 50 grid points.
GRID = {
    "topology.params.leaves": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    "workload.params.zipf_s": [0.5, 1.0, 1.5, 2.0, 2.5],
}


def start_daemon(store: str):
    """Host a daemon on an ephemeral port in a background thread."""
    started = threading.Event()
    box = {}

    def host():
        async def main():
            server = ServiceServer(store=store, port=0, worker="thread", workers=4)
            await server.start()
            box["port"] = server.port
            started.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    if not started.wait(timeout=60):
        raise RuntimeError("daemon failed to start")
    return box["port"], thread


def run_demo() -> int:
    with tempfile.TemporaryDirectory() as store:
        port, thread = start_daemon(store)
        client = ServiceClient(port=port, timeout=600.0)
        print(f"daemon up on 127.0.0.1:{port}, store at {store}")

        doc = demo_scenario().to_dict()
        points = len(GRID["topology.params.leaves"]) * len(
            GRID["workload.params.zipf_s"]
        )

        print(f"pass 1: sweeping {points} points ...")
        first = client.sweep(doc, GRID)
        computed = sum(1 for s in first["states"] if s != "cached")
        print(f"  computed {computed}/{points}, "
              f"cached {points - computed}/{points}")

        print("pass 2: identical sweep ...")
        second = client.sweep(doc, GRID)
        cached = sum(1 for s in second["states"] if s == "cached")
        print(f"  computed {points - cached}/{points}, "
              f"cached {cached}/{points}")

        identical = json.dumps(first["rows"], sort_keys=True) == json.dumps(
            second["rows"], sort_keys=True
        )
        print(f"rows byte-identical across passes: {identical}")
        stats = client.stats()
        print(f"store: {stats['store']['entries']} entries, "
              f"{stats['store']['total_bytes']} bytes")
        client.shutdown()
        thread.join(timeout=30)
        if not identical or cached != points:
            print("FAILED: second pass was not fully cached", file=sys.stderr)
            return 1
        return 0


def raw_submit(host: str, port: int, scenario_doc: dict) -> bytes:
    """``submit --wait`` over a raw socket; the response line as bytes."""
    request = {"cmd": "submit", "scenario": scenario_doc, "wait": True}
    with socket.create_connection((host, port), timeout=300.0) as conn:
        conn.sendall(json.dumps(request).encode() + b"\n")
        return conn.makefile("rb").readline().rstrip(b"\n")


def result_member(line: bytes) -> bytes:
    """The ``result`` member of a response: the rest of the line from
    its key on (the daemon writes it last)."""
    return line[line.index(b'"result": '):]


def run_smoke(host: str, port: int) -> int:
    """CI smoke: parity with a direct run + cache hit on resubmit."""
    client = ServiceClient(host=host, port=port, timeout=300.0)
    assert client.ping(), "daemon not reachable"

    scenario = demo_scenario()
    first_line = raw_submit(host, port, scenario.to_dict())
    first = json.loads(first_line)
    assert first["ok"], f"submit failed: {first.get('error')}"
    direct = ScenarioRunner().run(scenario)

    remote_row = first["result"]["row"]
    local_row = json.loads(json.dumps(direct.row))
    assert remote_row == local_row, (
        f"daemon row diverged from direct run:\n{remote_row}\n{local_row}"
    )

    second_line = raw_submit(host, port, scenario.to_dict())
    second = json.loads(second_line)
    assert second["state"] == "cached", (
        f"resubmission not served from store: state={second['state']}"
    )
    assert json.dumps(second["result"], sort_keys=True) == json.dumps(
        first["result"], sort_keys=True
    ), "cached payload not byte-identical to computed payload"
    assert result_member(second_line) == result_member(first_line), (
        "cached response bytes differ from the computed response's"
    )

    print("service smoke ok: parity with direct run, resubmit cached, "
          "result bytes identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="connect to a running daemon and run the CI assertions",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8923)
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args.host, args.port)
    return run_demo()


if __name__ == "__main__":
    sys.exit(main())
