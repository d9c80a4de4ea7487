"""Sweep, estimation, and reporting helpers for experiments.

Import-order note: the table and sweep helpers are dependency leaves and
load eagerly; the estimators and the resilience, countermeasure and
emergence tables (which pull in numpy, attacks and evolution) load on
first attribute access (PEP 562).
"""

from typing import TYPE_CHECKING

from .sweeps import grid_points, run_sweep
from .tables import format_table, format_value

if TYPE_CHECKING:  # pragma: no cover - lazy at runtime, eager for typing
    from .countermeasures import countermeasure_table, fee_policy_docs
    from .emergence import classify_topology, emergence_table
    from .estimation import (
        RateEstimate,
        ZipfEstimate,
        estimate_average_fee,
        estimate_sender_rates,
        estimate_total_rate,
        estimate_zipf_s,
    )
    from .resilience import equilibrium_topology_docs, resilience_table

__all__ = [
    "RateEstimate",
    "ZipfEstimate",
    "classify_topology",
    "countermeasure_table",
    "emergence_table",
    "fee_policy_docs",
    "estimate_average_fee",
    "estimate_sender_rates",
    "equilibrium_topology_docs",
    "estimate_total_rate",
    "estimate_zipf_s",
    "format_table",
    "resilience_table",
    "format_value",
    "grid_points",
    "run_sweep",
]

_LAZY_EXPORTS = {
    "RateEstimate": "estimation",
    "ZipfEstimate": "estimation",
    "classify_topology": "emergence",
    "countermeasure_table": "countermeasures",
    "emergence_table": "emergence",
    "equilibrium_topology_docs": "resilience",
    "estimate_average_fee": "estimation",
    "estimate_sender_rates": "estimation",
    "estimate_total_rate": "estimation",
    "estimate_zipf_s": "estimation",
    "fee_policy_docs": "countermeasures",
    "resilience_table": "resilience",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
