"""Asyncio job manager behind ``repro serve``.

A :class:`JobManager` accepts scenario documents, content-addresses each
one (:func:`~repro.service.hashing.scenario_content_hash`), and resolves
it through three tiers:

1. **store hit** — the hash is already in the :class:`ResultStore`; the
   job completes immediately in state ``cached`` without executing;
2. **in-flight dedupe** — an identical hash is already queued or
   running; the second submission attaches to the *same* job (one
   execution, any number of waiters);
3. **execute** — the document runs on a bounded worker pool (process,
   thread, or inline), which also renders the result's canonical JSON
   text; that text is written back to the store (fsync'd off the event
   loop) before the job completes.

A job's future holds the canonical payload *text*, never a parsed
document: a cache hit is one verified :meth:`ResultStore.get_text`, and
the daemon splices :meth:`Job.result_text` into its response verbatim.

Workers that die mid-job (a crashed worker process) are retried on a
rebuilt pool up to ``retries`` times before the job fails. Progress is
observable per job: every state transition appends an event document to
``job.events`` and ``job.snapshot()`` is safe to serialise at any time.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..errors import ServiceError
from ..obs.clock import monotonic
from ..obs.registry import MetricsRegistry
from ..scenarios.registry import IMPORT_LOCK
from .hashing import canonical_json, scenario_content_hash
from .store import ResultStore

__all__ = ["Job", "JobManager", "JOB_STATES"]

#: Every state a job can report.
JOB_STATES = ("queued", "running", "done", "failed", "cached", "cancelled")

#: Terminal states — the job's future is resolved.
_TERMINAL = ("done", "failed", "cached", "cancelled")


def _execute_scenario_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scenario document to its result document.

    Top level (hence picklable) so process workers can execute it; the
    imports stay local so a fresh worker process pays them once (thread
    workers share the lock that keeps two of them from importing one
    layer at once).
    """
    with IMPORT_LOCK:
        from ..scenarios.runner import ScenarioRunner
        from ..scenarios.specs import Scenario

    result = ScenarioRunner().run(Scenario.from_dict(document))
    return result.to_dict()


def _execute_to_text(
    execute: Callable[[Dict[str, Any]], Dict[str, Any]],
    document: Dict[str, Any],
) -> str:
    """``execute(document)`` rendered as canonical JSON, in the worker.

    Top level (hence picklable); the worker ships the compact text back
    instead of the whole result document.
    """
    return canonical_json(execute(document), allow_non_finite=True)


def _fail(future: "asyncio.Future[str]", exc: ServiceError) -> None:
    """Fail ``future`` unless it is done, and mark the exception retrieved.

    Clients that await the job still get ``exc``; a job nobody awaits (a
    ``submit`` without ``--wait``) no longer makes asyncio log "Future
    exception was never retrieved" when it is dropped.
    """
    if not future.done():
        future.set_exception(exc)
        future.exception()


class Job:
    """One submitted scenario and its lifecycle.

    Attributes:
        spec_hash: content address of the submitted scenario.
        scenario_doc: the submitted document (plain JSON types).
        state: one of :data:`JOB_STATES`.
        events: append-only state-transition log — documents of the form
            ``{"seq": n, "state": ..., "detail": ...}``.
        waiters: how many submissions attached to this job (>= 1; grows
            when identical in-flight hashes dedupe onto it).
        attempts: executions started (retries increment this).
        error: failure description once ``state == "failed"``.
        created_at_monotonic: obs-clock submission time (the queue-latency
            histogram measures from here to the first ``running``).
    """

    def __init__(
        self,
        spec_hash: str,
        scenario_doc: Dict[str, Any],
        on_event: Optional[Callable[["Job", str, Optional[str]], None]] = None,
    ) -> None:
        self.spec_hash = spec_hash
        self.scenario_doc = scenario_doc
        self.state = "queued"
        self.events: List[Dict[str, Any]] = []
        self.waiters = 1
        self.attempts = 0
        self.error: Optional[str] = None
        self.created_at_monotonic = monotonic()
        self.first_running_at: Optional[float] = None
        self._on_event = on_event
        #: Resolves to the canonical payload text of the result.
        self.future: "asyncio.Future[str]" = (
            asyncio.get_running_loop().create_future()
        )
        self._event("queued")

    def _event(self, state: str, detail: Optional[str] = None) -> None:
        self.state = state
        self.events.append(
            {"seq": len(self.events), "state": state, "detail": detail}
        )
        if self._on_event is not None:
            self._on_event(self, state, detail)

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON view of the job (what ``repro status`` prints)."""
        return {
            "spec_hash": self.spec_hash,
            "state": self.state,
            "waiters": self.waiters,
            "attempts": self.attempts,
            "error": self.error,
            "events": [dict(event) for event in self.events],
        }

    async def result(self) -> Dict[str, Any]:
        """The result document (await; raises ServiceError on failure)."""
        return json.loads(await self.result_text())

    async def result_text(self) -> str:
        """The result's canonical JSON text, as stored (see :meth:`result`)."""
        return await asyncio.shield(self.future)


class JobManager:
    """Content-addressed scenario execution with dedupe and caching.

    Args:
        store: result store (instance, path, or ``None`` for the
            default location).
        max_workers: concurrent executions (bounded worker pool).
        worker: ``"process"`` (default: isolates crashes),
            ``"thread"``, or ``"inline"`` (run on the event loop —
            tests only).
        retries: extra attempts when a worker dies mid-job.
        execute: override of the execution callable (tests inject
            failures here); defaults to running the scenario.
    """

    def __init__(
        self,
        store: Optional[Union[ResultStore, str]] = None,
        max_workers: int = 2,
        worker: str = "process",
        retries: int = 1,
        execute: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> None:
        if worker not in ("process", "thread", "inline"):
            raise ServiceError(f"unknown worker kind {worker!r}")
        if max_workers < 1:
            raise ServiceError("max_workers must be >= 1")
        self.store = ResultStore.open(store)
        self.max_workers = max_workers
        self.worker = worker
        self.retries = retries
        self._execute = execute or _execute_scenario_document
        self._jobs: Dict[str, Job] = {}
        self._slots = asyncio.Semaphore(max_workers)
        self._pool: Optional[Executor] = None
        self._tasks: "Dict[str, asyncio.Task[None]]" = {}
        self._counts = {state: 0 for state in JOB_STATES}
        #: Obs-clock instant this manager came up. A client that caches
        #: ``started_at_monotonic`` can detect a daemon restart: the new
        #: process reports a smaller value (and ``events_seq`` resets).
        self.started_at_monotonic = monotonic()
        #: Total job events emitted by this manager — monotonically
        #: increasing across every job, never reset while alive.
        self.events_seq = 0
        #: Always-on service registry (the daemon is wall-clock-bound
        #: anyway, so the determinism contract of the simulation layers
        #: does not apply here).
        self.registry = MetricsRegistry()

    def _on_job_event(
        self, job: Job, state: str, detail: Optional[str]
    ) -> None:
        self.events_seq += 1
        if state == "running" and job.first_running_at is None:
            now = monotonic()
            job.first_running_at = now
            self.registry.histogram("service.queue_latency_seconds").observe(
                now - job.created_at_monotonic
            )

    # -- pool management -------------------------------------------------

    def _ensure_pool(self) -> Optional[Executor]:
        if self.worker == "inline":
            return None
        if self._pool is None:
            if self.worker == "process":
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next attempt gets a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    async def close(self) -> None:
        """Cancel queued/running jobs and release the worker pool."""
        for task in list(self._tasks.values()):
            task.cancel()
        for task in list(self._tasks.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- submission ------------------------------------------------------

    def submit(self, scenario_doc: Mapping[str, Any]) -> Job:
        """Submit one scenario document; returns its (possibly shared) job.

        Must be called from within a running event loop. Identical
        in-flight hashes dedupe onto the existing job; store hits
        complete immediately in state ``cached``.
        """
        document = dict(scenario_doc)
        spec_hash = scenario_content_hash(document)
        existing = self._jobs.get(spec_hash)
        if existing is not None and not existing.finished:
            existing.waiters += 1
            existing._event(existing.state, "deduplicated submission")
            return existing

        job = Job(spec_hash, document, on_event=self._on_job_event)
        # Keyed by hash: resubmitting a finished hash replaces its job
        # (the fresh one carries the fresh lifecycle) without duplicating
        # the listing; dict order keeps first-submission order.
        self._jobs[spec_hash] = job

        # Read on the loop: a verified hit is one file read and one
        # sha256, cheaper than a hop to a worker thread.
        cached = self.store.get_text(spec_hash)
        if cached is not None:
            job._event("cached", "served from result store")
            job.future.set_result(cached)
            self._counts["cached"] += 1
            return job

        task = asyncio.get_running_loop().create_task(self._run(job))
        self._tasks[spec_hash] = task
        task.add_done_callback(
            lambda _t, key=spec_hash: self._tasks.pop(key, None)
        )
        return job

    async def _run(self, job: Job) -> None:
        try:
            async with self._slots:
                job._event("running")
                text = await self._attempt(job)
            # The fsync'd write runs off the loop, so cached readers
            # are not stalled behind a cold job's disk flush.
            await asyncio.get_running_loop().run_in_executor(
                None, self.store.put_text, job.spec_hash, text
            )
            job._event("done")
            job.future.set_result(text)
            self._counts["done"] += 1
        except asyncio.CancelledError:
            job._event("cancelled")
            _fail(job.future, ServiceError(f"job {job.spec_hash[:12]} cancelled"))
            self._counts["cancelled"] += 1
            raise
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job._event("failed", job.error)
            _fail(
                job.future,
                ServiceError(f"job {job.spec_hash[:12]} failed: {job.error}"),
            )
            self._counts["failed"] += 1

    async def _attempt(self, job: Job) -> str:
        """Execute to canonical text with retry-on-worker-crash semantics."""
        loop = asyncio.get_running_loop()
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            job.attempts += 1
            if attempt:
                job._event("running", f"retry {attempt} after worker crash")
            try:
                if self.worker == "inline":
                    return _execute_to_text(self._execute, job.scenario_doc)
                pool = self._ensure_pool()
                return await loop.run_in_executor(
                    pool, _execute_to_text, self._execute, job.scenario_doc
                )
            except BrokenProcessPool as exc:
                # The worker died (OOM-kill, segfault, …), not the job
                # logic — rebuild the pool and try again.
                last = exc
                self._discard_pool()
        raise ServiceError(
            f"worker crashed {self.retries + 1} times running "
            f"{job.spec_hash[:12]}"
        ) from last

    # -- inspection ------------------------------------------------------

    def get(self, spec_hash: str) -> Optional[Job]:
        return self._jobs.get(spec_hash)

    def jobs(self) -> List[Job]:
        """All tracked jobs (one per hash), in first-submission order."""
        return list(self._jobs.values())

    async def cancel(self, spec_hash: str) -> bool:
        """Cancel a queued/running job; returns whether anything changed."""
        job = self._jobs.get(spec_hash)
        task = self._tasks.get(spec_hash)
        if job is None or job.finished or task is None:
            return False
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        return True

    def stats(self) -> Dict[str, Any]:
        """Plain-JSON counters (jobs by terminal state + live view).

        ``started_at_monotonic`` / ``events_seq`` let a polling client
        detect daemon restarts: a restart resets both, so a response
        whose ``events_seq`` went backwards (or whose start instant
        changed) comes from a different process.
        """
        live = {"queued": 0, "running": 0}
        for job in self._jobs.values():
            if job.state in live:
                live[job.state] += 1
        doc: Dict[str, Any] = {"jobs": len(self._jobs)}
        doc.update(live)
        for state in _TERMINAL:
            doc[state] = self._counts[state]
        doc["started_at_monotonic"] = self.started_at_monotonic
        doc["uptime_seconds"] = monotonic() - self.started_at_monotonic
        doc["events_seq"] = self.events_seq
        return doc

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the manager's current state.

        Job-state gauges, the store hit rate (cached vs. executed
        completions), store size, uptime, the global event sequence, and
        the queued->running latency histogram.
        """
        registry = self.registry
        stats = self.stats()
        registry.gauge("service.jobs").set(stats["jobs"])
        registry.gauge("service.jobs_queued").set(stats["queued"])
        registry.gauge("service.jobs_running").set(stats["running"])
        for state in _TERMINAL:
            registry.gauge(f"service.jobs_{state}").set(self._counts[state])
        registry.gauge("service.events_seq").set(self.events_seq)
        registry.gauge("service.uptime_seconds").set(stats["uptime_seconds"])
        hits = self._counts["cached"]
        completed = hits + self._counts["done"]
        if completed:
            registry.gauge("service.store_hit_rate").set(hits / completed)
        store_stats = self.store.stats()
        registry.gauge("service.store_entries").set(store_stats.entries)
        registry.gauge("service.store_bytes").set(store_stats.total_bytes)
        return registry.render_prometheus()
