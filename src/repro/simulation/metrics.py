"""Per-node and per-edge accounting collected during simulation."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from ..determinism import ordered_sum

__all__ = ["SimulationMetrics"]

Edge = Tuple[Hashable, Hashable]

#: Version stamp of the ``to_dict`` document layout.
#: v2 added the upfront-fee tallies (``upfront_revenue`` /
#: ``upfront_fees_paid``).
METRICS_SCHEMA_VERSION = 2


@dataclass
class SimulationMetrics:
    """Counters accumulated over one simulation run.

    Attributes:
        attempted / succeeded / failed: payment counts.
        volume_delivered: sum of successfully delivered amounts.
        revenue: routing fees earned per node (as intermediary).
        fees_paid: routing fees paid per node (as sender).
        upfront_revenue: per-attempt upfront fees earned per node under
            a two-sided :class:`~repro.network.fees.FeePolicy` (empty
            under success-only fees).
        upfront_fees_paid: upfront fees paid per node (as sender),
            charged per attempted hop whether or not the payment
            settled.
        sent / received: successful payment counts per node.
        edge_traffic: number of successful traversals per directed edge.
        failure_reasons: failure-description -> count.
        horizon: simulated time span covered (set by the engine).
        seed: the resolved RNG seed of the run that produced these
            metrics (set by the engines at construction) — with
            ``seed=None`` runs the engine draws an entropy seed and
            records it here, so *every* run is replayable. ``None``
            only for hand-built metrics.
    """

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    volume_delivered: float = 0.0
    revenue: Dict[Hashable, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    fees_paid: Dict[Hashable, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    upfront_revenue: Dict[Hashable, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    upfront_fees_paid: Dict[Hashable, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    sent: Dict[Hashable, int] = field(default_factory=lambda: defaultdict(int))
    received: Dict[Hashable, int] = field(default_factory=lambda: defaultdict(int))
    edge_traffic: Dict[Edge, int] = field(default_factory=lambda: defaultdict(int))
    failure_reasons: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    horizon: float = 0.0
    htlc_locked_peak: float = 0.0
    seed: Optional[int] = None

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 0.0

    def revenue_rate(self, node: Hashable) -> float:
        """Observed revenue per unit time — the empirical counterpart of
        ``E_rev`` (Eq. 3); compared against the analytic value in E11."""
        if self.horizon <= 0:
            return 0.0
        return self.revenue.get(node, 0.0) / self.horizon

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON document (see :meth:`from_dict` for the inverse).

        Per-node tallies serialise as ``[node, value]`` pair lists and
        per-edge tallies as ``[src, dst, count]`` triples — JSON objects
        only take string keys, and node ids may be ints. Node ids that
        are themselves JSON scalars round-trip losslessly.
        """
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "volume_delivered": self.volume_delivered,
            "revenue": _pairs(self.revenue),
            "fees_paid": _pairs(self.fees_paid),
            "upfront_revenue": _pairs(self.upfront_revenue),
            "upfront_fees_paid": _pairs(self.upfront_fees_paid),
            "sent": _pairs(self.sent),
            "received": _pairs(self.received),
            "edge_traffic": [
                [src, dst, count]
                for (src, dst), count in sorted(
                    self.edge_traffic.items(), key=lambda kv: str(kv[0])
                )
            ],
            "failure_reasons": {
                str(reason): count
                for reason, count in sorted(self.failure_reasons.items())
            },
            "horizon": self.horizon,
            "htlc_locked_peak": self.htlc_locked_peak,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SimulationMetrics":
        """Rebuild metrics from a :meth:`to_dict` document."""
        version = document.get("schema_version", METRICS_SCHEMA_VERSION)
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported SimulationMetrics schema_version {version!r}"
            )
        metrics = cls(
            attempted=document.get("attempted", 0),
            succeeded=document.get("succeeded", 0),
            failed=document.get("failed", 0),
            volume_delivered=document.get("volume_delivered", 0.0),
            horizon=document.get("horizon", 0.0),
            htlc_locked_peak=document.get("htlc_locked_peak", 0.0),
            seed=document.get("seed"),
        )
        for name in (
            "revenue", "fees_paid", "upfront_revenue", "upfront_fees_paid",
            "sent", "received",
        ):
            table = getattr(metrics, name)
            for node, value in document.get(name, []):
                table[node] = value
        for src, dst, count in document.get("edge_traffic", []):
            metrics.edge_traffic[(src, dst)] = count
        for reason, count in document.get("failure_reasons", {}).items():
            metrics.failure_reasons[reason] = count
        return metrics

    def summary(self) -> str:
        return (
            f"payments: {self.succeeded}/{self.attempted} ok "
            f"({self.success_rate:.1%}), volume={self.volume_delivered:.4g}, "
            f"total revenue={ordered_sum(self.revenue.values()):.4g} "
            f"over t={self.horizon:.4g}"
        )


def _pairs(table: Mapping[Hashable, Any]) -> List[List[Any]]:
    """Sorted ``[node, value]`` pairs (stable across dict orderings)."""
    return [
        [node, value]
        for node, value in sorted(table.items(), key=lambda kv: str(kv[0]))
    ]
