"""Payment simulation over channel graphs: event-driven and batched.

:class:`SimulationEngine` is the discrete-event queue;
:class:`BatchedSimulationEngine` subclasses it and swaps in routing
over frozen view arrays. For identical seeds both give the same
counts, routes, per-node values and final balances; summed report
fields (``total_revenue``) add per-node dicts in different insertion
orders and may differ in their last bits. Both run instant and HTLC
payments and accept injected adversarial events.
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
