"""``repro serve`` — a JSON-lines-over-TCP scenario service.

The :class:`ServiceServer` binds localhost, wraps a
:class:`~repro.service.queue.JobManager`, and speaks a line protocol:
each request is one JSON object terminated by ``\\n``, each response one
JSON object ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.

Commands:

``{"cmd": "ping"}``
    liveness probe; answers ``{"ok": true, "pong": true}``.
``{"cmd": "submit", "scenario": {...}, "wait": bool}``
    content-address and enqueue a scenario document. With ``wait`` the
    response carries the result document; without, it returns
    immediately with the job's ``spec_hash`` and state.
``{"cmd": "status", "hash": ...}``
    job snapshot (state, events, waiters) — or every job when ``hash``
    is omitted.
``{"cmd": "result", "hash": ...}``
    the stored result document for a finished hash, served like a
    cached ``submit`` (:meth:`JobManager.stored_text`).
``{"cmd": "sweep", "scenario": {...}, "grid": {...}}``
    enqueue every grid point (seeds derived exactly as
    :meth:`ScenarioRunner.run_sweep` derives them) and answer with the
    rows in grid order plus per-point cache states.
``{"cmd": "cancel", "hash": ...}``
    cancel a queued/running job.
``{"cmd": "stats"}``
    queue + store counters (including ``started_at_monotonic`` /
    ``events_seq`` for restart detection).
``{"cmd": "metrics"}``
    Prometheus text exposition of the queue's instruments — job-state
    gauges, store hit rate, the queued->running latency histogram, the
    verified store reads and fsync'd writes
    (``repro_service_store_read_seconds`` / ``_write_seconds``), and
    one request-latency histogram per verb
    (``repro_service_request_<verb>_seconds``; ``submit`` splits into
    ``submit_cached`` and ``submit_executed``).
``{"cmd": "shutdown"}``
    stop serving after this response.

Responses that carry a result (``submit`` with ``wait``, ``result``) end
in ``"result": <text>}``, where ``<text>`` is the store's canonical
payload text spliced in verbatim: it is never parsed or re-encoded, so
cold and cached responses carry the same bytes. A repeat hit sends the
text this daemon already wrote or verified, without reading the entry
again, as long as the entry file keeps the ``os.stat`` identity the
daemon recorded; an entry evicted, replaced or rewritten since is read
and verified again (see :mod:`repro.service.queue`).

:class:`ServiceClient` is the synchronous counterpart used by the
``repro submit`` / ``repro status`` CLI: one TCP connection per request,
no event loop required on the caller's side.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ServiceError
from ..obs.clock import monotonic
from .queue import LATENCY_BUCKETS, JobManager
from .store import ResultStore

__all__ = ["ServiceServer", "ServiceClient", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8923

#: Cap on one request line (a scenario document is small; a line this
#: long is a protocol violation, not a workload).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ServiceServer:
    """The long-lived scenario daemon.

    Args:
        store: result store (instance, path, or ``None`` for default).
        host: bind address; keep the default loopback — the protocol is
            unauthenticated by design.
        port: TCP port (0 picks a free one; see :attr:`port` after
            :meth:`start`).
        manager: inject a preconfigured :class:`JobManager` (tests);
            otherwise one is built from ``workers``/``worker``.
        workers: pool size for the built manager.
        worker: worker kind for the built manager.
    """

    def __init__(
        self,
        store: Optional[Union[ResultStore, str]] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        manager: Optional[JobManager] = None,
        workers: int = 2,
        worker: str = "process",
    ) -> None:
        self.host = host
        self.port = port
        self._store_source = store
        self._manager_override = manager
        self._workers = workers
        self._worker = worker
        self.manager: Optional[JobManager] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._stopping = asyncio.Event()
        self.manager = self._manager_override or JobManager(
            store=self._store_source,
            max_workers=self._workers,
            worker=self._worker,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a ``shutdown`` command)."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        """Request shutdown (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.manager is not None and self.manager is not self._manager_override:
            await self.manager.close()

    # -- protocol --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    await self._reply(
                        writer, {"ok": False, "error": "request too large"}
                    )
                    break
                response = await self._dispatch(line)
                await self._reply(writer, response)
                if response.get("_close"):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _reply(
        self, writer: asyncio.StreamWriter, response: Dict[str, Any]
    ) -> None:
        text = response.get("_result")
        line = json.dumps({k: v for k, v in response.items() if not k.startswith("_")})
        if text is not None:
            # Splice the stored canonical text in as the last member.
            line = f'{line[:-1]}, "result": {text}}}'
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        if not isinstance(request, dict) or "cmd" not in request:
            return {"ok": False, "error": "request must be {'cmd': ...}"}
        command = request["cmd"]
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown command {command!r}"}
        started = monotonic()
        try:
            response = await handler(request)
        except ServiceError as exc:
            response = {"ok": False, "error": str(exc)}
        except Exception as exc:  # defensive: a bug must not kill the loop
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if command == "submit":
            cached = response.get("state") == "cached"
            command = "submit_cached" if cached else "submit_executed"
        assert self.manager is not None
        self.manager.registry.histogram(
            f"service.request_{command}_seconds", LATENCY_BUCKETS
        ).observe(monotonic() - started)
        return response

    # -- commands --------------------------------------------------------

    async def _cmd_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "pong": True}

    async def _cmd_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            return {"ok": False, "error": "submit needs a 'scenario' document"}
        job = self.manager.submit(scenario)
        text = await job.result_text() if request.get("wait") else None
        return {"ok": True, "hash": job.spec_hash, "state": job.state, "_result": text}

    async def _cmd_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        spec_hash = request.get("hash")
        if spec_hash is None:
            return {
                "ok": True,
                "jobs": [job.snapshot() for job in self.manager.jobs()],
            }
        job = self.manager.get(spec_hash)
        if job is None:
            return {"ok": False, "error": f"unknown job {spec_hash!r}"}
        return {"ok": True, "job": job.snapshot()}

    async def _cmd_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        spec_hash = request.get("hash")
        if not isinstance(spec_hash, str):
            return {"ok": False, "error": "result needs a 'hash'"}
        job = self.manager.get(spec_hash)
        if job is not None and not job.finished:
            return {"ok": False, "error": f"job {spec_hash[:12]} still {job.state}"}
        text = self.manager.stored_text(spec_hash)
        if text is None:
            return {"ok": False, "error": f"no result for {spec_hash[:12]}"}
        return {"ok": True, "hash": spec_hash, "_result": text}

    async def _cmd_sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        from ..scenarios.grid import grid_points
        from ..scenarios.runner import resolve_sweep_point

        scenario = request.get("scenario")
        grid = request.get("grid")
        if not isinstance(scenario, dict) or not isinstance(grid, dict):
            return {
                "ok": False,
                "error": "sweep needs 'scenario' and 'grid' documents",
            }
        jobs = []
        points: List[Dict[str, Any]] = []
        for index, point in enumerate(grid_points(grid)):
            resolved = resolve_sweep_point(scenario, index, point)
            jobs.append(self.manager.submit(resolved.to_dict()))
            points.append(point)
        states = [job.state for job in jobs]
        rows: List[Dict[str, Any]] = []
        for point, job in zip(points, jobs):
            payload = await job.result()
            row = dict(point)
            row.update(payload["row"])
            rows.append(row)
        return {
            "ok": True,
            "rows": rows,
            "hashes": [job.spec_hash for job in jobs],
            "states": states,
        }

    async def _cmd_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        spec_hash = request.get("hash")
        if not isinstance(spec_hash, str):
            return {"ok": False, "error": "cancel needs a 'hash'"}
        changed = await self.manager.cancel(spec_hash)
        return {"ok": True, "cancelled": changed}

    async def _cmd_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        return {
            "ok": True,
            "queue": self.manager.stats(),
            "store": self.manager.store.stats().to_dict(),
        }

    async def _cmd_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.manager is not None
        return {"ok": True, "metrics": self.manager.render_prometheus()}

    async def _cmd_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        await self.stop()
        return {"ok": True, "stopping": True, "_close": True}


class ServiceClient:
    """Synchronous client: one TCP connection per request.

    Raises :class:`ServiceError` on transport failures and on
    ``{"ok": false}`` responses, so callers only see healthy payloads.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Send one command document; return the (ok) response."""
        payload = json.dumps(document).encode("utf-8") + b"\n"
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as conn:
                conn.sendall(payload)
                line = self._read_line(conn)
        except OSError as exc:
            raise ServiceError(
                f"cannot reach repro service at {self.host}:{self.port}: {exc}"
            ) from exc
        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"malformed response from service: {exc}") from exc
        if not isinstance(response, dict) or not response.get("ok"):
            error = "unknown error"
            if isinstance(response, dict):
                error = str(response.get("error", error))
            raise ServiceError(error)
        return response

    @staticmethod
    def _read_line(conn: socket.socket) -> bytes:
        chunks: List[bytes] = []
        total = 0
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            if chunk.endswith(b"\n"):
                break
            if total > MAX_LINE_BYTES:
                raise ServiceError("service response too large")
        return b"".join(chunks)

    # -- convenience wrappers -------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"cmd": "ping"}).get("pong"))

    def submit(
        self, scenario_doc: Dict[str, Any], wait: bool = False
    ) -> Dict[str, Any]:
        return self.request(
            {"cmd": "submit", "scenario": scenario_doc, "wait": wait}
        )

    def status(self, spec_hash: Optional[str] = None) -> Dict[str, Any]:
        document: Dict[str, Any] = {"cmd": "status"}
        if spec_hash is not None:
            document["hash"] = spec_hash
        return self.request(document)

    def result(self, spec_hash: str) -> Dict[str, Any]:
        return self.request({"cmd": "result", "hash": spec_hash})

    def sweep(
        self, scenario_doc: Dict[str, Any], grid: Dict[str, Any]
    ) -> Dict[str, Any]:
        return self.request(
            {"cmd": "sweep", "scenario": scenario_doc, "grid": grid}
        )

    def cancel(self, spec_hash: str) -> Dict[str, Any]:
        return self.request({"cmd": "cancel", "hash": spec_hash})

    def stats(self) -> Dict[str, Any]:
        return self.request({"cmd": "stats"})

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition."""
        return str(self.request({"cmd": "metrics"})["metrics"])

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"cmd": "shutdown"})


def run_server(
    store: Optional[str] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 2,
    worker: str = "process",
    ready: Optional[Any] = None,
) -> Tuple[str, int]:
    """Blocking entry point for ``python -m repro serve``.

    Runs the server on a fresh event loop until a ``shutdown`` command
    or KeyboardInterrupt. ``ready`` (a callable) is invoked with
    ``(host, port)`` once the socket is bound — the CLI uses it to print
    the address, tests to learn an ephemeral port.
    """
    server = ServiceServer(
        store=store, host=host, port=port, workers=workers, worker=worker
    )

    async def _main() -> Tuple[str, int]:
        await server.start()
        if ready is not None:
            ready(server.host, server.port)
        await server.serve_forever()
        return server.host, server.port

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return server.host, server.port
