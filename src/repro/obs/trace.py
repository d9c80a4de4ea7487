"""Event trace export as JSON lines.

One :class:`TraceWriter` per run appends one JSON object per line:

* a ``meta`` header (``schema_version``, the clock origin),
* ``event`` records — point-in-time marks (``ts`` seconds since the
  writer opened, on the obs clock) plus caller fields such as the
  simulated time, a payment id, or a finished phase and its seconds.

Timestamps come from :mod:`repro.obs.clock` only, so tracing perturbs
neither simulation RNG nor results; a traced run's metrics are
bit-identical to an untraced one (the parity suite asserts it).
"""

from __future__ import annotations

import json
from typing import IO, Any, Optional, Union

from .clock import monotonic

__all__ = ["TRACE_SCHEMA_VERSION", "TraceWriter"]

#: Version stamp written in the ``meta`` header line.
TRACE_SCHEMA_VERSION = 1


class TraceWriter:
    """Append-only JSON-lines trace sink (file path or open handle)."""

    def __init__(self, sink: Union[str, IO[str]]) -> None:
        if isinstance(sink, str):
            self._handle: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self._origin = monotonic()
        self.records_written = 0
        self._write({"type": "meta", "schema_version": TRACE_SCHEMA_VERSION})

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def event(self, name: str, **fields: Any) -> None:
        """One point-in-time mark."""
        record = {
            "type": "event",
            "name": name,
            "ts": round(monotonic() - self._origin, 9),
        }
        record.update(fields)
        self._write(record)

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> Optional[bool]:
        self.close()
        return None
