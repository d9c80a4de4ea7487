"""The :class:`RunTelemetry` artifact and the hot-spot report built on it.

``RunTelemetry`` is the frozen, schema-versioned summary of one
instrumented run: counters, gauges, per-phase wall time and histograms.
It rides *alongside* the result artifacts — :func:`attach_telemetry` pins
it onto a ``SimulationMetrics`` / ``AttackReport`` / ``Trajectory``
without entering their ``to_dict`` documents, so result hashing, the
content-addressed store, and every existing round-trip contract are
untouched by instrumentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..determinism import ordered_sum

__all__ = [
    "RunTelemetry",
    "TELEMETRY_SCHEMA_VERSION",
    "attach_telemetry",
    "hotspot_table",
    "telemetry_of",
]

#: Version stamp of the ``RunTelemetry.to_dict`` document layout.
TELEMETRY_SCHEMA_VERSION = 2

#: Side-channel attribute telemetry rides on (never serialised by the
#: host artifact's ``to_dict``).
_TELEMETRY_ATTR = "_repro_telemetry"


@dataclass(frozen=True)
class RunTelemetry:
    """Everything one instrumented run measured, in plain JSON types.

    Attributes:
        counters / gauges: flat name -> value instrument snapshots.
        phase_seconds: wall time per named phase (topology, workload,
            simulate, attack baseline/attacked, evolution phases, ...).
        histograms: name -> ``{"bounds", "counts", "count", "sum"}``.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name]
                       for name in sorted(self.gauges)},
            "phase_seconds": {name: self.phase_seconds[name]
                              for name in sorted(self.phase_seconds)},
            "histograms": {name: dict(self.histograms[name])
                           for name in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RunTelemetry":
        """Rebuild telemetry from a :meth:`to_dict` document (strict)."""
        if not isinstance(document, Mapping):
            raise ValueError(
                f"RunTelemetry document must be a mapping, "
                f"got {type(document).__name__}"
            )
        version = document.get("schema_version", TELEMETRY_SCHEMA_VERSION)
        if version != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunTelemetry schema_version {version!r}"
            )
        known = {
            "schema_version", "counters", "gauges", "phase_seconds",
            "histograms",
        }
        unknown = set(document) - known
        if unknown:
            raise ValueError(f"unknown RunTelemetry fields: {sorted(unknown)}")
        return cls(
            counters=dict(document.get("counters", {})),
            gauges=dict(document.get("gauges", {})),
            phase_seconds=dict(document.get("phase_seconds", {})),
            histograms={
                name: dict(histogram)
                for name, histogram in document.get("histograms", {}).items()
            },
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        return cls.from_dict(json.loads(text))


def attach_telemetry(artifact: Any, telemetry: RunTelemetry) -> Any:
    """Pin ``telemetry`` onto ``artifact`` (frozen dataclasses included).

    The attribute is a side channel: it never appears in the artifact's
    ``to_dict`` document, so content hashes and store round-trips are
    byte-identical with and without it.
    """
    object.__setattr__(artifact, _TELEMETRY_ATTR, telemetry)
    return artifact


def telemetry_of(artifact: Any) -> Optional[RunTelemetry]:
    """The telemetry attached to ``artifact``, or ``None``."""
    return getattr(artifact, _TELEMETRY_ATTR, None)


def hotspot_table(telemetry: RunTelemetry) -> str:
    """Human-readable hot-spot report: wall time per phase."""
    from ..analysis import format_table

    if not telemetry.phase_seconds:
        return "no telemetry recorded (was the run instrumented?)"
    total = ordered_sum(telemetry.phase_seconds.values())
    rows = [
        {
            "phase": name,
            "seconds": seconds,
            "share": seconds / total if total > 0 else 0.0,
        }
        for name, seconds in sorted(
            telemetry.phase_seconds.items(), key=lambda kv: -kv[1]
        )
    ]
    return format_table(rows, title="per-phase wall time")
