"""Counter / Gauge / Histogram behind a process-local registry.

Zero overhead when disabled: :data:`NULL_REGISTRY` is a shared no-op
singleton whose instruments swallow every update, so an uninstrumented
hot loop pays one attribute lookup and a falsy check — never a dict
probe. The registry reads no clock: a caller that times something reads
:func:`~repro.obs.clock.monotonic` itself and observes the difference
into a histogram. Enabled registries are plain dict-backed accumulators
with a Prometheus text rendering for the service daemon's ``metrics``
verb.
"""

from __future__ import annotations

import bisect
import os
from typing import Any, Dict, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "obs_enabled_from_env",
]

#: Default histogram bucket upper bounds, tuned for latencies in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def obs_enabled_from_env() -> bool:
    """``REPRO_OBS=1`` (or true/yes/on) opts the process into metrics."""
    value = os.environ.get("REPRO_OBS", "")
    return value.strip().lower() in {"1", "true", "yes", "on"}


class Counter:
    """Monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound bucketed distribution (plus an implicit +Inf bucket)."""

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bound")
        self.name = name
        self.bounds = tuple(sorted(float(bound) for bound in bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Get-or-create home of every instrument in one run/process."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON dump of every instrument (names sorted)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition of every instrument.

        Metric names are ``<prefix>_<name>`` with dots/dashes folded to
        underscores; histograms render cumulative ``_bucket`` series
        plus ``_sum`` / ``_count`` in the standard layout.
        """
        lines = []
        for name in sorted(self._counters):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(self._counters[name].value)}")
        for name in sorted(self._gauges):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(self._gauges[name].value)}")
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_prom_value(histogram.sum)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"


def _prom_name(prefix: str, name: str) -> str:
    folded = name.replace(".", "_").replace("-", "_")
    return f"{prefix}_{folded}" if prefix else folded


def _prom_value(value: float) -> str:
    # Integral values print without a trailing ".0" (Prometheus style).
    return str(int(value)) if float(value).is_integer() else repr(float(value))


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null", DEFAULT_BUCKETS)

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._null_histogram


#: Shared disabled registry — what every engine sees unless obs is on.
NULL_REGISTRY = NullRegistry()

