"""Payment simulation over channel graphs: event-driven and batched.

Two interchangeable backends produce identical metrics for identical
seeds: :class:`SimulationEngine` (the discrete-event queue) and
:class:`BatchedSimulationEngine` (the vectorised fast path). Both run
instant and HTLC payments and accept injected adversarial events.
"""

from .engine import SimulationEngine
from .events import Event, EventQueue, PaymentEvent
from .fastpath import BatchedSimulationEngine
from .metrics import SimulationMetrics

__all__ = [
    "BatchedSimulationEngine",
    "Event",
    "EventQueue",
    "PaymentEvent",
    "SimulationEngine",
    "SimulationMetrics",
]
