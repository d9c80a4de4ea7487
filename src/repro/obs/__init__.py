"""repro.obs — deterministic instrumentation, tracing, and profiling.

The observability layer every engine, the attacks runner, the evolution
engine, the service queue, and the CLI hang their hooks on. Design
contract (enforced by the parity suite in ``tests/obs/``):

* **zero overhead when disabled** — the default :data:`NULL_SESSION`
  carries the shared :data:`~repro.obs.registry.NULL_REGISTRY`; hot
  loops pay one attribute lookup and a falsy check;
* **determinism** — wall-clock reads live only in
  :mod:`repro.obs.clock`; instrumentation never touches simulation RNG
  or results, so obs-on and obs-off runs are bit-identical.

One :class:`ObsSession` is the per-run handle: a metrics registry, an
optional :class:`~repro.obs.trace.TraceWriter`, and the per-phase wall
times the :class:`~repro.obs.report.RunTelemetry` artifact is built
from.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .clock import Clock, FakeClock, get_clock, monotonic, set_clock
from .registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    obs_enabled_from_env,
)
from .report import (
    TELEMETRY_SCHEMA_VERSION,
    RunTelemetry,
    attach_telemetry,
    hotspot_table,
    telemetry_of,
)
from .trace import TRACE_SCHEMA_VERSION, TraceWriter

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_BUCKETS",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SESSION",
    "NullRegistry",
    "ObsSession",
    "RunTelemetry",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TraceWriter",
    "attach_telemetry",
    "default_session",
    "get_clock",
    "hotspot_table",
    "monotonic",
    "obs_enabled_from_env",
    "set_clock",
    "telemetry_of",
]


class ObsSession:
    """One run's instrumentation handle.

    Args:
        enabled: force on/off; ``None`` resolves to "on if a tracer was
            given, else the ``REPRO_OBS`` env flag".
        tracer: optional :class:`TraceWriter` receiving event records
            (implies enabled).
    """

    __slots__ = ("enabled", "registry", "tracer", "phase_seconds")

    def __init__(
        self,
        enabled: Optional[bool] = None,
        tracer: Optional[TraceWriter] = None,
    ) -> None:
        if enabled is None:
            enabled = tracer is not None or obs_enabled_from_env()
        self.enabled = bool(enabled)
        self.registry: MetricsRegistry = (
            MetricsRegistry() if self.enabled else NULL_REGISTRY
        )
        self.tracer = tracer if self.enabled else None
        #: phase name -> accumulated wall seconds.
        self.phase_seconds: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase (no-op, clock untouched, when disabled)."""
        if not self.enabled:
            yield
            return
        started = monotonic()
        try:
            yield
        finally:
            elapsed = monotonic() - started
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + elapsed
            )
            if self.tracer is not None:
                self.tracer.event("phase", phase=name, seconds=elapsed)

    def event(self, name: str, **fields: Any) -> None:
        """Forward a trace event iff a tracer is attached."""
        if self.tracer is not None:
            self.tracer.event(name, **fields)

    def build_telemetry(self) -> RunTelemetry:
        """Freeze the session's measurements into a :class:`RunTelemetry`."""
        snapshot = self.registry.snapshot()
        return RunTelemetry(
            counters=dict(snapshot.get("counters", {})),
            gauges=dict(snapshot.get("gauges", {})),
            phase_seconds=dict(self.phase_seconds),
            histograms=dict(snapshot.get("histograms", {})),
        )


#: The shared disabled session — what everything sees by default.
NULL_SESSION = ObsSession(enabled=False)

_default: Optional[ObsSession] = None


def default_session() -> ObsSession:
    """The process-default session: enabled iff ``REPRO_OBS`` is set.

    Cached after the first call so every engine constructed in an
    opted-in process aggregates into one registry.
    """
    global _default
    if _default is None:
        _default = ObsSession()
    return _default
