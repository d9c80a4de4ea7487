"""repro serve end to end: protocol, parity, cached resubmission.

The server runs on an ephemeral port inside a loop hosted by a
background thread; the synchronous :class:`ServiceClient` talks to it
from the test thread exactly as the CLI would.
"""

import asyncio
import json
import socket
import threading

import pytest

import repro.service.queue as queue_module
import repro.service.store as store_module
from repro.errors import ServiceError
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.specs import Scenario, SimulationSpec, TopologySpec
from repro.service.daemon import ServiceClient, ServiceServer
from repro.service.hashing import canonical_json


def scenario():
    return Scenario(
        name="daemon-test",
        topology=TopologySpec("star", {"leaves": 3}),
        simulation=SimulationSpec(horizon=3.0),
        seed=11,
    )


@pytest.fixture
def server(tmp_path):
    """A live daemon on an ephemeral port; yields (client, server)."""
    started = threading.Event()
    box = {}

    def host():
        async def main():
            srv = ServiceServer(
                store=str(tmp_path / "store"), port=0, worker="thread",
                workers=2,
            )
            await srv.start()
            box["server"] = srv
            started.set()
            await srv.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    assert started.wait(timeout=30)
    client = ServiceClient(port=box["server"].port, timeout=120.0)
    yield client
    try:
        client.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=30)


class TestProtocol:
    def test_ping(self, server):
        assert server.ping() is True

    def test_unknown_command_is_an_error(self, server):
        with pytest.raises(ServiceError, match="unknown command"):
            server.request({"cmd": "frobnicate"})

    def test_malformed_json_is_an_error(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as conn:
            conn.sendall(b"{not json\n")
            response = json.loads(conn.makefile().readline())
        assert response["ok"] is False
        assert "bad request" in response["error"]

    def test_submit_requires_scenario(self, server):
        with pytest.raises(ServiceError, match="scenario"):
            server.request({"cmd": "submit"})

    def test_status_of_unknown_hash(self, server):
        with pytest.raises(ServiceError, match="unknown job"):
            server.status("f" * 64)


class TestSubmitAndCache:
    def test_submitted_result_matches_direct_run(self, server):
        s = scenario()
        response = server.submit(s.to_dict(), wait=True)
        direct = ScenarioRunner().run(s).to_dict()
        assert canonical_json(response["result"]) == canonical_json(direct)
        assert response["hash"] == s.content_hash()

    def test_resubmission_is_served_from_store(self, server):
        s = scenario()
        first = server.submit(s.to_dict(), wait=True)
        assert first["state"] in ("queued", "running", "done")
        second = server.submit(s.to_dict(), wait=True)
        assert second["state"] == "cached"
        # byte-identical payloads: computed once, replayed from the store
        assert json.dumps(second["result"], sort_keys=True) == json.dumps(
            first["result"], sort_keys=True
        )

    def test_async_submit_then_poll_and_fetch(self, server):
        s = scenario()
        ticket = server.submit(s.to_dict(), wait=False)
        spec_hash = ticket["hash"]
        for _ in range(600):
            job = server.status(spec_hash)["job"]
            if job["state"] in ("done", "cached", "failed"):
                break
        assert job["state"] in ("done", "cached")
        result = server.result(spec_hash)["result"]
        assert result["row"]["seed"] == 11
        states = [event["state"] for event in job["events"]]
        assert states[0] == "queued"

    def test_stats_reports_queue_and_store(self, server):
        server.submit(scenario().to_dict(), wait=True)
        stats = server.stats()
        assert stats["queue"]["jobs"] >= 1
        assert stats["store"]["entries"] >= 1

    def test_stats_expose_restart_detection_fields(self, server):
        before = server.stats()["queue"]
        server.submit(scenario().to_dict(), wait=True)
        after = server.stats()["queue"]
        assert after["started_at_monotonic"] == before["started_at_monotonic"]
        assert after["events_seq"] > before["events_seq"]
        assert after["uptime_seconds"] >= before["uptime_seconds"]

    def test_metrics_verb_serves_prometheus_text(self, server):
        server.submit(scenario().to_dict(), wait=True)
        text = server.metrics()
        assert "# TYPE repro_service_jobs gauge" in text
        assert "repro_service_jobs " in text
        assert "repro_service_store_entries" in text
        assert "repro_service_queue_latency_seconds_count" in text


def _raw_request(client, document):
    """One request over a raw socket; the response line as bytes."""
    with socket.create_connection((client.host, client.port), timeout=120) as conn:
        conn.sendall(json.dumps(document).encode() + b"\n")
        return conn.makefile("rb").readline().rstrip(b"\n")


def _result_member(line):
    """``"result": ...}`` — the rest of the line from the result key on."""
    return line[line.index(b'"result": '):]


class TestResultBytes:
    def test_cold_cached_and_result_verb_bytes_identical(
        self, server, tmp_path, monkeypatch
    ):
        submit = {"cmd": "submit", "scenario": scenario().to_dict(), "wait": True}
        cold = _raw_request(server, submit)
        assert cold.startswith(b'{"ok": true, "hash": ')
        spec_hash = json.loads(cold)["hash"]
        assert json.loads(cold)["state"] == "done"

        # From here on, serving must not re-canonicalise anything.
        def refuse(*args, **kwargs):
            raise AssertionError("cached path re-canonicalised a payload")

        monkeypatch.setattr(store_module, "canonical_json", refuse)
        monkeypatch.setattr(queue_module, "canonical_json", refuse)
        cached = _raw_request(server, submit)
        assert json.loads(cached)["state"] == "cached"
        fetched = _raw_request(server, {"cmd": "result", "hash": spec_hash})
        assert json.loads(fetched)["ok"] is True

        assert _result_member(cached) == _result_member(cold)
        assert _result_member(fetched) == _result_member(cold)
        # ...and those bytes are the stored, checksummed payload text.
        text = store_module.ResultStore(tmp_path / "store").get_text(spec_hash)
        assert _result_member(cold) == b'"result": ' + text.encode() + b"}"

    def test_cached_submit_lands_in_cached_histogram(self, server):
        s = scenario()
        server.submit(s.to_dict(), wait=True)
        server.submit(s.to_dict(), wait=True)
        server.submit(s.to_dict(), wait=False)
        server.ping()
        text = server.metrics()
        assert "repro_service_request_submit_executed_seconds_count 1" in text
        assert "repro_service_request_submit_cached_seconds_count 2" in text
        assert "repro_service_request_ping_seconds_count 1" in text
        # sub-millisecond buckets resolve cache hits
        assert 'repro_service_request_submit_cached_seconds_bucket{le="0.0001"}' in text


def _count(metrics, name):
    """The ``_count`` sample of histogram ``name`` in a Prometheus text."""
    prefix = f"repro_{name}_count "
    line = next(line for line in metrics.splitlines() if line.startswith(prefix))
    return int(line[len(prefix):])


class TestMemoryHits:
    def test_repeat_hits_need_no_store_read(self, server):
        submit = {"cmd": "submit", "scenario": scenario().to_dict(), "wait": True}
        cold = _raw_request(server, submit)
        spec_hash = json.loads(cold)["hash"]
        metrics = server.metrics()
        assert _count(metrics, "service_store_read_seconds") == 1  # the miss
        assert _count(metrics, "service_store_write_seconds") == 1
        for _ in range(3):
            cached = _raw_request(server, submit)
            assert json.loads(cached)["state"] == "cached"
            assert _result_member(cached) == _result_member(cold)
        fetched = _raw_request(server, {"cmd": "result", "hash": spec_hash})
        assert _result_member(fetched) == _result_member(cold)
        metrics = server.metrics()
        assert _count(metrics, "service_store_read_seconds") == 1
        assert _count(metrics, "service_store_write_seconds") == 1
        assert _count(metrics, "service_request_submit_cached_seconds") == 3

    def test_evicted_entry_is_no_result_then_runs_again(self, server, tmp_path):
        document = scenario().to_dict()
        cold = server.submit(document, wait=True)
        store = store_module.ResultStore(tmp_path / "store")
        assert store.gc(max_entries=0) == [cold["hash"]]
        with pytest.raises(ServiceError, match="no result"):
            server.result(cold["hash"])
        again = server.submit(document, wait=True)
        assert again["state"] == "done"
        assert canonical_json(again["result"]) == canonical_json(cold["result"])
        assert cold["hash"] in store
        assert server.submit(document, wait=True)["state"] == "cached"


class TestSweep:
    def test_sweep_rows_match_local_run_sweep(self, server):
        s = scenario()
        grid = {"topology.params.leaves": [3, 4]}
        remote = server.sweep(s.to_dict(), grid)
        local = ScenarioRunner().run_sweep(s, grid)
        normalised = json.loads(json.dumps(local))
        assert remote["rows"] == normalised
        assert len(remote["hashes"]) == 2

    def test_second_sweep_is_fully_cached(self, server):
        s = scenario()
        grid = {"topology.params.leaves": [3, 4, 5]}
        first = server.sweep(s.to_dict(), grid)
        second = server.sweep(s.to_dict(), grid)
        assert second["rows"] == first["rows"]
        assert second["states"] == ["cached"] * 3
        assert second["hashes"] == first["hashes"]


class TestShutdown:
    def test_shutdown_command_stops_the_server(self, tmp_path):
        started = threading.Event()
        box = {}

        def host():
            async def main():
                srv = ServiceServer(
                    store=str(tmp_path / "s2"), port=0, worker="inline"
                )
                await srv.start()
                box["server"] = srv
                started.set()
                await srv.serve_forever()

            asyncio.run(main())

        thread = threading.Thread(target=host, daemon=True)
        thread.start()
        assert started.wait(timeout=30)
        client = ServiceClient(port=box["server"].port, timeout=30.0)
        assert client.shutdown()["stopping"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises(ServiceError):
            client.ping()
