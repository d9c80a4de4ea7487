"""Event types for the discrete-event PCN simulator.

Payments execute instantaneously in the model, so the core loop is a
time-ordered queue of arrival events; HTLC mode adds resolve events, and
extensions such as :mod:`repro.attacks` inject their own event types.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = [
    "Event",
    "PaymentEvent",
    "HtlcResolveEvent",
    "EventQueue",
]


@dataclass(frozen=True)
class Event:
    """Base event: something that happens at a point in simulated time."""

    time: float


@dataclass(frozen=True)
class PaymentEvent(Event):
    """A payment intent entering the network.

    ``index`` is the payment's position in the scheduled trace (stamped
    by ``schedule_workload`` / ``schedule_transactions``); ``-1`` marks
    an ad-hoc event scheduled outside a trace. Under
    ``route_rng="payment"`` the engine derives the payment's
    path-sampling RNG from it, so routing decisions are independent of
    which other payments share the run.
    """

    sender: Hashable = None
    receiver: Hashable = None
    amount: float = 0.0
    index: int = -1


@dataclass(frozen=True)
class HtlcResolveEvent(Event):
    """Settle a pending HTLC payment that finished its hold time."""

    payment_id: int = -1


class EventQueue:
    """A stable min-heap of events ordered by time then insertion order."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._tiebreak = itertools.count()
        self._last_popped_time = -float("inf")

    def push(self, event: Event) -> None:
        if event.time < self._last_popped_time:
            raise SimulationError(
                f"event at t={event.time} scheduled in the past "
                f"(now t={self._last_popped_time})"
            )
        heapq.heappush(self._heap, (event.time, next(self._tiebreak), event))

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, _count, event = heapq.heappop(self._heap)
        self._last_popped_time = time
        return event

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
