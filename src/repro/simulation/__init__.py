"""Payment simulation over channel graphs: event-driven and batched.

Two interchangeable backends produce identical metrics for identical
seeds: :class:`SimulationEngine` (the discrete-event queue — supports
HTLC holds, mid-run topology changes, and adversarial event injection)
and :class:`BatchedSimulationEngine` (the vectorised fast path for
instant-mode payment traces). :class:`ShardedTraceRunner` splits a trace
into component-disjoint shards and runs them on worker processes,
merging metrics exactly.
"""

from .engine import SimulationEngine
from .events import (
    ChannelCloseEvent,
    ChannelOpenEvent,
    Event,
    EventQueue,
    PaymentEvent,
)
from .fastpath import BatchedSimulationEngine
from .metrics import SimulationMetrics
from .sharding import ShardedTraceRunner

__all__ = [
    "BatchedSimulationEngine",
    "ChannelCloseEvent",
    "ChannelOpenEvent",
    "Event",
    "EventQueue",
    "PaymentEvent",
    "ShardedTraceRunner",
    "SimulationEngine",
    "SimulationMetrics",
]
