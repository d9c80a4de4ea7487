"""Payment simulation over channel graphs.

:class:`SimulationEngine` holds the discrete-event queue, scheduling and
HTLC metric booking; :class:`BatchedSimulationEngine`, the engine to build,
subclasses it, routes over frozen view arrays and runs every instant
payment through one function there. It runs instant and
HTLC payments and accepts injected adversarial events.
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
