"""Payment simulation over channel graphs.

:class:`SimulationEngine` holds the discrete-event queue, scheduling and
metric booking; :class:`BatchedSimulationEngine`, the engine to build,
subclasses it and routes over frozen view arrays. It runs instant and
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
