"""JobManager: dedupe, cached fast path, retries, progress events.

No pytest-asyncio in the toolchain, so every test drives its own loop
via ``asyncio.run``. Workers are ``inline`` (run on the loop) unless a
test is specifically about pool behaviour — the execution callable is
injected, so scenarios never actually run here.
"""

import asyncio
import gc
import logging
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ServiceError
from repro.scenarios.specs import Scenario, TopologySpec
from repro.service.hashing import scenario_content_hash
from repro.service.queue import JOB_STATES, JobManager
from repro.service.store import ResultStore


def doc(seed=7):
    return Scenario(
        name="queue-test",
        topology=TopologySpec("star", {"leaves": 3}),
        seed=seed,
    ).to_dict()


def fake_execute(document):
    return {"row": {"seed": document["seed"]}, "echo": document["name"]}


def manager(tmp_path, **kwargs):
    kwargs.setdefault("worker", "inline")
    kwargs.setdefault("execute", fake_execute)
    return JobManager(store=ResultStore(tmp_path / "store"), **kwargs)


class TestSubmission:
    def test_submit_executes_and_stores(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            job = mgr.submit(doc())
            result = await job.result()
            assert job.state == "done"
            assert result["row"] == {"seed": 7}
            assert mgr.store.get(job.spec_hash) == result
            await mgr.close()

        asyncio.run(main())

    def test_spec_hash_matches_content_hash(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            job = mgr.submit(doc())
            assert job.spec_hash == scenario_content_hash(doc())
            await job.result()
            await mgr.close()

        asyncio.run(main())

    def test_cached_fast_path(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            first = await mgr.submit(doc()).result()
            again = mgr.submit(doc())
            assert again.state == "cached"
            assert await again.result() == first
            assert mgr.stats()["cached"] == 1
            await mgr.close()

        asyncio.run(main())

    def test_inflight_dedupe_shares_one_job(self, tmp_path):
        async def main():
            calls = []
            release = asyncio.Event()

            async def run_all():
                def slow(document):
                    calls.append(document["seed"])
                    return fake_execute(document)

                mgr = manager(tmp_path, execute=slow, max_workers=1)
                a = mgr.submit(doc())
                b = mgr.submit(doc())
                assert a is b
                assert b.waiters == 2
                release.set()
                ra, rb = await asyncio.gather(a.result(), b.result())
                assert ra == rb
                await mgr.close()

            await run_all()
            assert calls == [7]  # executed once for both waiters

        asyncio.run(main())

    def test_distinct_documents_get_distinct_jobs(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            a = mgr.submit(doc(seed=1))
            b = mgr.submit(doc(seed=2))
            assert a is not b
            results = await asyncio.gather(a.result(), b.result())
            assert [r["row"]["seed"] for r in results] == [1, 2]
            await mgr.close()

        asyncio.run(main())


class TestFailureAndRetry:
    def test_failing_job_reports_error(self, tmp_path):
        async def main():
            def boom(document):
                raise ValueError("simulated blow-up")

            mgr = manager(tmp_path, execute=boom)
            job = mgr.submit(doc())
            with pytest.raises(ServiceError, match="simulated blow-up"):
                await job.result()
            assert job.state == "failed"
            assert "simulated blow-up" in job.error
            assert mgr.store.get(job.spec_hash) is None
            await mgr.close()

        asyncio.run(main())

    def test_worker_crash_retries_then_succeeds(self, tmp_path):
        async def main():
            attempts = []

            def flaky(document):
                attempts.append(1)
                if len(attempts) == 1:
                    raise BrokenProcessPool("worker died")
                return fake_execute(document)

            mgr = manager(tmp_path, execute=flaky, retries=1)
            job = mgr.submit(doc())
            result = await job.result()
            assert result["row"] == {"seed": 7}
            assert job.attempts == 2
            assert len(attempts) == 2
            await mgr.close()

        asyncio.run(main())

    def test_worker_crash_exhausts_retries(self, tmp_path):
        async def main():
            def always_dead(document):
                raise BrokenProcessPool("worker died")

            mgr = manager(tmp_path, execute=always_dead, retries=2)
            job = mgr.submit(doc())
            with pytest.raises(ServiceError, match="crashed 3 times"):
                await job.result()
            assert job.state == "failed"
            assert job.attempts == 3
            await mgr.close()

        asyncio.run(main())

    def test_failed_jobs_can_be_resubmitted(self, tmp_path):
        async def main():
            mode = {"fail": True}

            def sometimes(document):
                if mode["fail"]:
                    raise ValueError("first try fails")
                return fake_execute(document)

            mgr = manager(tmp_path, execute=sometimes)
            with pytest.raises(ServiceError):
                await mgr.submit(doc()).result()
            mode["fail"] = False
            job = mgr.submit(doc())  # not deduped onto the failed job
            assert await job.result() is not None
            assert job.state == "done"
            await mgr.close()

        asyncio.run(main())


def _never_retrieved(caplog):
    return [
        record for record in caplog.records
        if "never retrieved" in record.getMessage()
    ]


class TestUnawaitedOutcomes:
    """A failed or cancelled job that no client awaits logs nothing when
    it is dropped (a resubmission replaces it, or the daemon exits)."""

    def test_failed_job_nobody_awaits(self, tmp_path, caplog):
        async def main():
            def boom(document):
                raise ValueError("simulated blow-up")

            mgr = manager(tmp_path, execute=boom, worker="thread")
            job = mgr.submit(doc())
            while not job.finished:
                await asyncio.sleep(0.005)
            await mgr.close()
            assert job.state == "failed"

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(main())
            gc.collect()
        assert _never_retrieved(caplog) == []

    def test_job_cancelled_at_close_nobody_awaits(self, tmp_path, caplog):
        async def main():
            def slow(document):
                time.sleep(0.2)
                return fake_execute(document)

            mgr = manager(tmp_path, execute=slow, worker="thread")
            job = mgr.submit(doc())
            await asyncio.sleep(0.02)
            await mgr.close()
            assert job.state == "cancelled"

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(main())
            gc.collect()
        assert _never_retrieved(caplog) == []

    def test_awaiting_client_still_sees_the_failure(self, tmp_path):
        async def main():
            def boom(document):
                raise ValueError("simulated blow-up")

            mgr = manager(tmp_path, execute=boom)
            job = mgr.submit(doc())
            while not job.finished:
                await asyncio.sleep(0)
            with pytest.raises(ServiceError, match="simulated blow-up"):
                await job.result()
            await mgr.close()

        asyncio.run(main())


class TestProgressAndStats:
    def test_events_trace_the_lifecycle(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            job = mgr.submit(doc())
            await job.result()
            states = [event["state"] for event in job.events]
            assert states == ["queued", "running", "done"]
            assert [event["seq"] for event in job.events] == [0, 1, 2]
            await mgr.close()

        asyncio.run(main())

    def test_snapshot_is_json_shaped(self, tmp_path):
        async def main():
            import json

            mgr = manager(tmp_path)
            job = mgr.submit(doc())
            await job.result()
            snapshot = job.snapshot()
            assert json.loads(json.dumps(snapshot)) == snapshot
            assert snapshot["state"] in JOB_STATES
            await mgr.close()

        asyncio.run(main())

    def test_stats_counts_terminal_states(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            await mgr.submit(doc(seed=1)).result()
            mgr.submit(doc(seed=1))  # cached
            stats = mgr.stats()
            assert stats["done"] == 1
            assert stats["cached"] == 1
            # one tracked hash — the cached resubmission replaced the
            # done job in the listing rather than duplicating it
            assert stats["jobs"] == 1
            await mgr.close()

        asyncio.run(main())

    def test_jobs_listing_preserves_order(self, tmp_path):
        async def main():
            mgr = manager(tmp_path)
            a = mgr.submit(doc(seed=1))
            b = mgr.submit(doc(seed=2))
            assert mgr.jobs() == [a, b]
            assert mgr.get(a.spec_hash) is a
            await asyncio.gather(a.result(), b.result())
            await mgr.close()

        asyncio.run(main())


class TestValidation:
    def test_rejects_unknown_worker(self, tmp_path):
        with pytest.raises(ServiceError):
            JobManager(store=str(tmp_path), worker="quantum")

    def test_rejects_nonpositive_workers(self, tmp_path):
        with pytest.raises(ServiceError):
            JobManager(store=str(tmp_path), max_workers=0)

    def test_thread_worker_executes(self, tmp_path):
        async def main():
            mgr = manager(tmp_path, worker="thread")
            result = await mgr.submit(doc()).result()
            assert result["row"] == {"seed": 7}
            await mgr.close()

        asyncio.run(main())


#: One small document per stage kind: each first imports other layers.
STAGE_DOCS = {
    "join": {
        "topology": {"kind": "ba", "params": {"n": 10}},
        "algorithm": {"kind": "greedy", "params": {"budget": 2.0, "lock": 1.0}},
    },
    "simulate": {
        "topology": {"kind": "erdos-renyi", "params": {"n": 10, "p": 0.5}},
        "simulation": {"horizon": 1.0},
    },
    "attack": {
        "topology": {"kind": "star", "params": {"leaves": 4, "balance": 5.0}},
        "simulation": {"horizon": 2.0, "payment_mode": "htlc"},
        "attack": {"kind": "jamming", "params": {"budget": 50.0}},
    },
    "evolve": {
        "topology": {"kind": "path", "params": {"n": 4}},
        "evolution": {"epochs": 1, "traffic_horizon": 0.0},
    },
}


def test_thread_workers_import_layers_one_at_a_time(fresh_python, tmp_path):
    """A fresh daemon's thread workers run their first jobs at once: more
    workers than cores, a short switch interval, and every stage kind, so
    each job would first import its own layers. None may fail."""
    code = (
        "import asyncio, sys\n"
        "from repro.service.queue import JobManager\n"
        "sys.setswitchinterval(1e-6)\n"
        f"docs = {STAGE_DOCS!r}\n"
        "async def main():\n"
        f"    mgr = JobManager(store={str(tmp_path / 'store')!r}, max_workers=4,\n"
        "                     worker='thread')\n"
        "    jobs = [mgr.submit(dict(doc, name=name, seed=1))\n"
        "            for name, doc in sorted(docs.items())]\n"
        "    try:\n"
        "        await asyncio.wait_for(asyncio.gather(\n"
        "            *(job.result_text() for job in jobs)), 120)\n"
        "    finally:\n"
        "        await mgr.close()\n"
        "    print([job.state for job in jobs])\n"
        "asyncio.run(main())\n"
    )
    assert fresh_python(code, timeout=180) == "['done', 'done', 'done', 'done']"
