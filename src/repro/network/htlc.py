"""Hash time-locked contracts: atomic multi-hop payments (footnote 1).

The paper routes multi-hop payments assuming "techniques, namely HTLCs, to
ensure that the transactions on a path will be executed atomically, either
all or none". This module implements that substrate: a payment first
*locks* funds hop by hop from the sender toward the receiver (each hop
reserving the forwarded amount from the upstream party's balance), then
either *settles* (receiver reveals the preimage; funds move, fees stick)
or *fails* (a hop cannot lock; every reservation unwinds). Between lock
and resolution the reserved funds are unavailable to other payments —
which is exactly the in-flight-capital effect that makes the opportunity
cost of Section II-C real.

:class:`HtlcLedger` reserves hops on the simulator's array state: one
balance per directed CSR entry and one in-flight slot count per entry,
capped by the channel's ``max_accepted_htlcs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import HtlcError, RoutingError
from .fees import ConstantFee, FeeFunction, FeePolicy

__all__ = ["HtlcError", "HtlcLedger", "HtlcState", "HtlcPayment"]


class HtlcState(Enum):
    """Lifecycle of one in-flight payment."""

    PENDING = "pending"      # locks placed, awaiting settle/fail
    SETTLED = "settled"      # preimage revealed, funds finalised
    FAILED = "failed"        # unwound, balances restored


@dataclass
class HtlcPayment:
    """A chain of per-hop HTLCs for one multi-hop payment.

    ``entries`` and ``amounts`` are the CSR entries locked so far and the
    hop amount reserved on each; they stay after settle and are cleared
    by the unwind. ``failure_reason`` is set when a
    :meth:`HtlcLedger.lock` fails: ``"no-balance"`` (the hop's channel
    could not fund the amount, or there is no channel) or
    ``"no-slots"`` (a channel had the balance but every HTLC slot in the
    needed direction was occupied — the jammed case).

    ``upfront_fees_per_node`` records the per-attempt side of a
    two-sided :class:`~repro.network.fees.FeePolicy`: each hop actually
    offered credits its receiving node, settle or not, and the unwind
    never refunds it. Empty under a success-only fee.
    """

    payment_id: int
    path: Tuple[Hashable, ...]
    amount: float
    state: HtlcState = HtlcState.PENDING
    entries: List[int] = field(default_factory=list)
    amounts: List[float] = field(default_factory=list)
    fees_per_node: Dict[Hashable, float] = field(default_factory=dict)
    failure_reason: str = ""
    upfront_fees_per_node: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def sender(self) -> Hashable:
        return self.path[0]

    @property
    def receiver(self) -> Hashable:
        return self.path[-1]

    @property
    def total_locked(self) -> float:
        return sum(self.amounts)

    @property
    def upfront_total(self) -> float:
        """All upfront fees the sender owes for this attempt."""
        return sum(self.upfront_fees_per_node.values())


class HtlcLedger:
    """Two-phase (lock / settle-or-fail) multi-hop payments on array state.

    Owns the fee and its two-sided policy, the ``(hops, amount)``
    hop-amount memo, the in-flight map with its running
    ``locked_capital`` total and settle-time fee booking. ``lock``
    reserves each hop on a CSR entry of the state it is bound to: the hop
    amount leaves the upstream balance into escrow and occupies one slot
    of that direction; settlement decides which side it lands on.
    Constructed with the engine, so fees price routes at once, and bound
    by :meth:`bind` when the engine freezes its array state.
    """

    def __init__(self, fee: Optional[FeeFunction] = None) -> None:
        self.fee = fee if fee is not None else ConstantFee(0.0)
        # The two-sided view of the fee: ``policy.upfront`` prices the
        # per-attempt side (zero for plain FeeFunctions, so success-only
        # fees behave exactly as before).
        self.policy = FeePolicy.of(self.fee)
        self._ids = itertools.count()
        self._in_flight: Dict[int, HtlcPayment] = {}
        # (hops, amount) -> hop amounts. Attack strategies re-price the
        # same route shape with the same amount on every attempt, so the
        # fee recursion memoises; bounded so a continuous honest-amount
        # distribution cannot grow it without limit.
        self._hop_amounts_cache: Dict[Tuple[int, float], Tuple[float, ...]] = {}
        # Running sum of in-flight locked amounts, maintained incrementally
        # so locked_capital() is O(1) under jamming-scale in-flight sets.
        self._locked_totals: Dict[int, float] = {}
        self._locked_total = 0.0
        self._state: Any = None

    def bind(self, state: Any) -> None:
        """Reserve hops on ``state`` from now on.

        ``state`` carries ``balances`` and ``rev_entry`` per CSR entry,
        the per-entry ``slots_used`` and ``slot_cap`` lists and
        ``name_pair_entry``, the ``(src, dst)`` -> entry map (the
        simulator's ``_ArrayState``).
        """
        self._state = state

    def hop_amounts(self, hops: int, amount: float) -> List[float]:
        """Per-hop amounts (sender side first) for delivering ``amount``.

        Public so extensions (e.g. attack strategies sizing their capital
        commitments) can price a route the same way ``lock`` will.
        """
        return list(self._hop_amounts(hops, amount))

    def _hop_amounts(self, hops: int, amount: float) -> Tuple[float, ...]:
        """With fee forwarding, hop ``i`` carries the delivered amount plus
        all fees owed to intermediaries downstream of it."""
        cached = self._hop_amounts_cache.get((hops, amount))
        if cached is not None:
            return cached
        amounts = [amount]
        for _ in range(hops - 1):
            amounts.insert(0, amounts[0] + self.fee(amounts[0]))
        if len(self._hop_amounts_cache) >= 4096:
            self._hop_amounts_cache.clear()
        result = tuple(amounts)
        self._hop_amounts_cache[(hops, amount)] = result
        return result

    # -- the protocol -----------------------------------------------------------

    def lock(self, path: Sequence[Hashable], amount: float) -> HtlcPayment:
        """Phase 1: reserve funds along ``path`` for ``amount``.

        Walks sender -> receiver placing one HTLC per hop. If a hop lacks
        balance (``"no-balance"``) or a free slot (``"no-slots"``, checked
        second), every earlier reservation unwinds and the payment is
        returned in the FAILED state.
        """
        if len(path) < 2:
            raise RoutingError("path needs at least one hop")
        if amount <= 0:
            raise HtlcError(f"amount must be > 0, got {amount}")
        hop_amounts = self._hop_amounts(len(path) - 1, amount)
        state = self._state
        if state is None:
            raise HtlcError(
                "the engine's HTLC router binds to array state at the "
                "first run() call; lock() is only available inside a run"
            )
        payment = HtlcPayment(next(self._ids), tuple(path), amount)
        # Hot path under jamming: hoist every per-hop attribute chase.
        pair_entry_get = state.name_pair_entry.get
        balances = state.balances
        slots_used = state.slots_used
        slot_cap = state.slot_cap
        has_upfront = self.policy.has_upfront
        entries = payment.entries
        amounts = payment.amounts
        src = path[0]
        for dst, hop_amount in zip(path[1:], hop_amounts):
            entry = pair_entry_get((src, dst))
            if entry is None or (before := balances[entry]) < hop_amount:
                reason = "no-balance"
            elif slots_used[entry] >= slot_cap[entry]:
                reason = "no-slots"
            else:
                reason = ""
            if reason:
                self._unwind(payment)
                payment.state = HtlcState.FAILED
                payment.failure_reason = reason
                return payment
            # reserve: the hop amount leaves the upstream spendable
            # balance into escrow and occupies one direction slot.
            balances[entry] = before - hop_amount
            slots_used[entry] += 1
            if has_upfront:
                # The upfront side is unconditional: a hop that was
                # actually offered pays its receiver even if a later hop
                # fails, and the unwind never refunds it. The charge is
                # ledger-only (no balance moves), so liquidity and slot
                # dynamics are independent of the upfront rate.
                payment.upfront_fees_per_node[dst] = (
                    payment.upfront_fees_per_node.get(dst, 0.0)
                    + self.policy.upfront(hop_amount)
                )
            entries.append(entry)
            amounts.append(hop_amount)
            src = dst
        self._in_flight[payment.payment_id] = payment
        locked = payment.total_locked
        self._locked_totals[payment.payment_id] = locked
        self._locked_total += locked
        return payment

    def settle(self, payment: HtlcPayment) -> None:
        """Phase 2a: the receiver reveals the preimage; funds finalise.

        Each hop's reserved amount moves to the downstream party; the
        difference between a hop's inbound and outbound amounts stays with
        the intermediary as its fee.
        """
        self._require_pending(payment)
        state = self._state
        balances = state.balances
        for entry, hop_amount in zip(payment.entries, payment.amounts):
            balances[int(state.rev_entry[entry])] += hop_amount
            state.slots_used[entry] -= 1
        amounts = payment.amounts
        fees = payment.fees_per_node
        for node, inbound, outbound in zip(
            payment.path[1:-1], amounts, amounts[1:]
        ):
            fees[node] = fees.get(node, 0.0) + inbound - outbound
        payment.state = HtlcState.SETTLED
        self._drop_in_flight(payment)

    def fail(self, payment: HtlcPayment) -> None:
        """Phase 2b: unwind every reservation; balances fully restored."""
        self._require_pending(payment)
        self._unwind(payment)
        payment.state = HtlcState.FAILED
        self._drop_in_flight(payment)

    # -- internals ---------------------------------------------------------------

    def _unwind(self, payment: HtlcPayment) -> None:
        """Hand every reservation back upstream, last hop first."""
        state = self._state
        balances = state.balances
        for entry, hop_amount in zip(
            reversed(payment.entries), reversed(payment.amounts)
        ):
            balances[entry] += hop_amount
            state.slots_used[entry] -= 1
        payment.entries.clear()
        payment.amounts.clear()

    def _require_pending(self, payment: HtlcPayment) -> None:
        if payment.state is not HtlcState.PENDING:
            raise HtlcError(
                f"payment {payment.payment_id} is {payment.state.value}, "
                "not pending"
            )

    def _drop_in_flight(self, payment: HtlcPayment) -> None:
        if self._in_flight.pop(payment.payment_id, None) is None:
            return
        self._locked_total -= self._locked_totals.pop(payment.payment_id, 0.0)
        if not self._in_flight:
            # Re-anchor: with nothing in flight the total is exactly zero;
            # shed any rounding the incremental +/- accumulated.
            self._locked_total = 0.0

    @property
    def in_flight(self) -> Tuple[HtlcPayment, ...]:
        return tuple(self._in_flight.values())

    def locked_capital(self) -> float:
        """Total coins currently reserved by pending payments."""
        return self._locked_total
