"""Shared state between an attack strategy and the simulation engine.

The :class:`AttackContext` is the strategy's only handle on the world: it
schedules attacker events on the engine's shared queue, opens
budget-accounted attacker channels, places and resolves HTLC locks through
the engine's own :class:`~repro.network.htlc.HtlcLedger` (so attacker
locks and honest locks contend for the same balances and slots), and
accumulates the damage counters the :class:`~repro.attacks.report.AttackReport`
is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..determinism import ordered_sum
from ..errors import ScenarioError
from ..network.channel import Channel
from ..network.graph import ChannelGraph
from ..network.htlc import HtlcPayment, HtlcState
from ..obs import NULL_SESSION, ObsSession

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..simulation.engine import SimulationEngine
from ..simulation.events import Event

__all__ = ["AttackContext", "AttackTickEvent", "AttackResolveEvent"]


@dataclass(frozen=True)
class AttackTickEvent(Event):
    """The strategy wakes up to (possibly) launch more adversarial HTLCs."""


@dataclass(frozen=True)
class AttackResolveEvent(Event):
    """A held adversarial HTLC reaches its resolution time."""

    payment_id: int = -1


class AttackContext:
    """Budget-accounted attacker access to a running simulation.

    Args:
        graph: the attacked network (attacker channels are added to it).
        engine: the engine driving the honest workload; the attacker
            shares its event queue and HTLC router.
        victim: the node whose revenue the attack targets.
        horizon: simulated end time — no attacker event is scheduled past it.
        budget: attacker capital endowment; every channel funding, pushed
            balance, and paid fee is drawn from it.
        seed: attacker RNG stream (independent of the honest streams, so
            the honest trace is bit-identical with and without the attack).
        obs: instrumentation session for attack counters and circuit
            trace events (defaults to the shared disabled session).
    """

    def __init__(
        self,
        graph: ChannelGraph,
        engine: "SimulationEngine",
        victim: Hashable,
        horizon: float,
        budget: float,
        seed: int = 0,
        obs: Optional[ObsSession] = None,
    ) -> None:
        if budget < 0:
            raise ScenarioError(f"attack budget must be >= 0, got {budget}")
        self.graph = graph
        self.engine = engine
        self.victim = victim
        self.horizon = float(horizon)
        self.budget = float(budget)
        self.budget_spent = 0.0
        self.fees_paid = 0.0
        # Unconditional per-attempt fees under a two-sided FeePolicy —
        # the jamming countermeasure's bite: charged on every lock
        # attempt (even rejected ones), never refunded.
        self.upfront_paid = 0.0
        self.attacks_launched = 0
        self.attacks_held = 0
        self.attacks_rejected = 0
        self.locked_liquidity_integral = 0.0
        self.rng = np.random.default_rng([seed & 0x7FFFFFFF, 0xA77AC])
        self._obs = obs if obs is not None else NULL_SESSION
        # payment_id -> (payment, lock time); resolved or finalized later.
        self._active: Dict[int, Tuple[HtlcPayment, float]] = {}

    # -- time & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def active_locks(self) -> int:
        return len(self._active)

    def schedule(self, event: Event) -> bool:
        """Queue ``event`` unless it falls past the horizon."""
        if event.time > self.horizon:
            return False
        self.engine.schedule(event)
        return True

    # -- budget-accounted capital -------------------------------------------

    @property
    def budget_remaining(self) -> float:
        return max(0.0, self.budget - self.budget_spent)

    def open_channel(
        self, owner: Hashable, peer: Hashable, funding: float, push: float = 0.0
    ) -> Optional[Channel]:
        """Open an attacker channel, drawing ``funding + push`` from budget.

        ``push`` models Lightning's ``push_msat``: coins the attacker hands
        to ``peer``'s side at open, buying the inbound liquidity adversarial
        circuits need on their exit hop. Returns ``None`` (and opens
        nothing) when the budget can't cover it.
        """
        cost = funding + push
        if funding < 0 or push < 0:
            raise ScenarioError("channel funding and push must be >= 0")
        if cost > self.budget_remaining + 1e-12:
            return None
        self.budget_spent += cost
        obs = self._obs
        if obs.enabled:
            obs.registry.counter("attack.channels_opened").inc()
            obs.event(
                "attack.open_channel",
                t=self.now, owner=str(owner), peer=str(peer),
                funding=funding, push=push,
            )
        return self.graph.add_channel(owner, peer, funding, push)

    def hop_amounts(self, hops: int, amount: float) -> List[float]:
        """Per-hop amounts (sender side first) under the engine's fee."""
        return self.engine.htlc_router.hop_amounts(hops, amount)

    # -- adversarial HTLCs ---------------------------------------------------

    def lock(self, path: Sequence[Hashable], amount: float) -> Optional[HtlcPayment]:
        """Place an adversarial HTLC chain along ``path``.

        Returns the pending payment, or ``None`` when some hop rejected the
        lock (no balance / no free slot) — the rejection is booked by
        :meth:`reject`.
        """
        payment = self.engine.htlc_router.lock(path, amount)
        # The upfront side charges per hop actually offered, settle or
        # not — a lock that fails mid-path still pays its earlier hops. Dict
        # check first: success-only policies charge nothing, and jamming
        # hammers this path tens of thousands of times.
        if payment.upfront_fees_per_node:
            self.upfront_paid += payment.upfront_total
        if payment.state is not HtlcState.PENDING:
            self.reject(path, amount)
            return None
        self.attacks_launched += 1
        self.attacks_held += 1
        obs = self._obs
        if obs.enabled:
            obs.registry.counter("attack.locks_held").inc()
            obs.event(
                "attack.lock",
                t=self.now, payment_id=payment.payment_id,
                hops=len(path) - 1, amount=amount,
            )
        self._active[payment.payment_id] = (payment, self.now)
        return payment

    def reject(self, path: Sequence[Hashable], amount: float) -> None:
        """Book one launch along ``path`` that was refused.

        :meth:`lock` calls this when the ledger refuses a hop. A strategy
        calls it directly for a retry it knows the ledger would refuse,
        without placing the lock.
        """
        self.attacks_launched += 1
        self.attacks_rejected += 1
        obs = self._obs
        if obs.enabled:
            obs.registry.counter("attack.locks_rejected").inc()
            obs.event(
                "attack.lock_rejected",
                t=self.now, hops=len(path) - 1, amount=amount,
            )

    def resolve(self, payment_id: int, settle: bool) -> Optional[HtlcPayment]:
        """Settle or fail a held adversarial HTLC, booking its damage.

        The locked-liquidity integral accumulates ``total_locked *
        held_time``. On settle, the routing fees the attacker paid are
        tracked in ``fees_paid`` — they are *not* added to ``budget_spent``
        (they were already part of the committed entry funding; counting
        them again would double-book). Unknown ids (already resolved)
        return ``None``.
        """
        entry = self._active.pop(payment_id, None)
        if entry is None:
            return None
        payment, locked_at = entry
        self.locked_liquidity_integral += payment.total_locked * (
            self.now - locked_at
        )
        if settle:
            self.engine.htlc_router.settle(payment)
            self.fees_paid += ordered_sum(payment.fees_per_node.values())
        else:
            self.engine.htlc_router.fail(payment)
        obs = self._obs
        if obs.enabled:
            obs.registry.counter(
                "attack.settled" if settle else "attack.failed"
            ).inc()
            obs.event(
                "attack.resolve",
                t=self.now, payment_id=payment_id, settle=settle,
                held=self.now - locked_at,
            )
        return payment

    def finalize(self) -> None:
        """Book still-held locks up to the horizon (end of simulation)."""
        for payment, locked_at in self._active.values():
            self.locked_liquidity_integral += payment.total_locked * max(
                0.0, self.horizon - locked_at
            )
        self._active.clear()
