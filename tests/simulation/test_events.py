"""Unit tests for the event queue."""

import pytest

from repro.errors import SimulationError
from repro.simulation.events import EventQueue, HtlcResolveEvent, PaymentEvent


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(PaymentEvent(time=3.0, sender="a", receiver="b", amount=1.0))
        queue.push(PaymentEvent(time=1.0, sender="a", receiver="b", amount=1.0))
        queue.push(PaymentEvent(time=2.0, sender="a", receiver="b", amount=1.0))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_stable_for_equal_times(self):
        queue = EventQueue()
        first = PaymentEvent(time=1.0, sender="a", receiver="b", amount=1.0)
        second = PaymentEvent(time=1.0, sender="c", receiver="d", amount=2.0)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_rejects_scheduling_in_the_past(self):
        queue = EventQueue()
        queue.push(PaymentEvent(time=5.0, sender="a", receiver="b", amount=1.0))
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(PaymentEvent(time=4.0, sender="a", receiver="b", amount=1.0))

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.push(HtlcResolveEvent(time=2.0, payment_id=0))
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_mixed_event_types(self):
        queue = EventQueue()
        queue.push(HtlcResolveEvent(time=2.0, payment_id=0))
        queue.push(PaymentEvent(time=1.0, sender="a", receiver="b", amount=1.0))
        assert isinstance(queue.pop(), PaymentEvent)
        assert isinstance(queue.pop(), HtlcResolveEvent)
