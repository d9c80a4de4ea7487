"""Content-addressed scenario service: hashing, store, queue, daemon.

The service layer turns every :class:`~repro.scenarios.specs.Scenario`
into a stable content address (:func:`scenario_content_hash` — sha256 of
canonical JSON, version-salted) and uses it to memoise execution:

* :class:`ResultStore` — a crash-safe filesystem store mapping
  spec-hash -> result document (atomic tmp+rename writes, checksum-
  verified reads with corruption quarantine, LRU-bounded ``gc``);
* :class:`JobManager` — an asyncio queue with in-flight dedupe, a
  bounded worker pool, and retry-on-worker-crash;
* :class:`ServiceServer` / :class:`ServiceClient` — the
  ``python -m repro serve`` JSON-lines-over-TCP daemon and its
  synchronous client.

Import-order note: hashing and store are dependency leaves and load
eagerly; the queue and daemon (asyncio and the worker pools) load lazily
on first attribute access (PEP 562). No module here imports a compute
layer at import time: a job's worker imports the runner when it runs.
"""

from typing import TYPE_CHECKING

from .hashing import (
    ARTIFACT_SCHEMA_VERSION,
    canonical_json,
    content_hash,
    point_hash,
    scenario_content_hash,
)
from .store import ResultStore, StoreStats, default_store_path

if TYPE_CHECKING:  # pragma: no cover - lazy at runtime, eager for typing
    from .daemon import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, ServiceServer
    from .queue import Job, JobManager

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Job",
    "JobManager",
    "ResultStore",
    "ServiceClient",
    "ServiceServer",
    "StoreStats",
    "canonical_json",
    "content_hash",
    "default_store_path",
    "point_hash",
    "scenario_content_hash",
]

_LAZY_EXPORTS = {
    "Job": "queue",
    "JobManager": "queue",
    "ServiceClient": "daemon",
    "ServiceServer": "daemon",
    "DEFAULT_HOST": "daemon",
    "DEFAULT_PORT": "daemon",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
