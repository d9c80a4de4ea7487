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

:class:`HtlcLedger` holds the per-payment bookkeeping; :class:`HtlcRouter`
reserves hops on :class:`~repro.network.channel.Channel` objects, and the
batched engine's array router on CSR entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import HtlcError, RoutingError
from .channel import Channel
from .fees import ConstantFee, FeeFunction, FeePolicy
from .graph import ChannelGraph

__all__ = [
    "HtlcError", "HtlcLedger", "HtlcState", "Htlc", "HtlcPayment", "HtlcRouter",
]


class HtlcState(Enum):
    """Lifecycle of one in-flight payment."""

    PENDING = "pending"      # locks placed, awaiting settle/fail
    SETTLED = "settled"      # preimage revealed, funds finalised
    FAILED = "failed"        # unwound, balances restored


@dataclass
class Htlc:
    """One hop's conditional payment: ``amount`` reserved from ``sender``."""

    channel: Channel
    sender: Hashable
    amount: float


@dataclass
class HtlcPayment:
    """A chain of per-hop HTLCs for one multi-hop payment.

    ``failure_reason`` is set when a :meth:`HtlcRouter.lock` fails:
    ``"no-balance"`` (no channel on some hop could fund the amount) or
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
    hops: List[Htlc] = field(default_factory=list)
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
        return sum(h.amount for h in self.hops)

    @property
    def upfront_total(self) -> float:
        """All upfront fees the sender owes for this attempt."""
        return sum(self.upfront_fees_per_node.values())


class HtlcLedger:
    """The per-payment bookkeeping both HTLC routers share.

    Owns the fee and its two-sided policy, the ``(hops, amount)``
    hop-amount memo, the in-flight map with its running
    ``locked_capital`` total, settle-time fee booking and ``fail``.
    Subclasses reserve and release the hops themselves: ``lock`` places
    the reservations and ends in :meth:`_track` or :meth:`_reject`,
    :meth:`_release` moves settled reservations downstream and
    :meth:`_unwind` hands them back upstream.
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

    def hop_amounts(self, hops: int, amount: float) -> List[float]:
        """Per-hop amounts (sender side first) for delivering ``amount``.

        Public so extensions (e.g. attack strategies sizing their capital
        commitments) can price a route the same way ``lock`` will.
        """
        return list(self._hop_amounts(hops, amount))

    def _hop_amounts(self, hops: int, amount: float) -> Tuple[float, ...]:
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

    def _check(self, path: Sequence[Hashable], amount: float) -> Tuple[float, ...]:
        """Validate a lock request; returns its hop amounts."""
        if len(path) < 2:
            raise RoutingError("path needs at least one hop")
        if amount <= 0:
            raise HtlcError(f"amount must be > 0, got {amount}")
        return self._hop_amounts(len(path) - 1, amount)

    def _track(self, payment: "HtlcPayment") -> "HtlcPayment":
        """Record a fully locked payment as in flight."""
        self._in_flight[payment.payment_id] = payment
        locked = payment.total_locked
        self._locked_totals[payment.payment_id] = locked
        self._locked_total += locked
        return payment

    def _reject(self, payment: "HtlcPayment", reason: str) -> "HtlcPayment":
        """Unwind a partly locked payment and mark it failed."""
        self._unwind(payment)
        payment.state = HtlcState.FAILED
        payment.failure_reason = reason
        return payment

    # -- the protocol -----------------------------------------------------------

    def settle(self, payment: "HtlcPayment") -> None:
        """Phase 2a: the receiver reveals the preimage; funds finalise.

        Each hop's reserved amount moves to the downstream party; the
        difference between a hop's inbound and outbound amounts stays with
        the intermediary as its fee.
        """
        self._require_pending(payment)
        amounts = self._release(payment)
        fees = payment.fees_per_node
        for node, inbound, outbound in zip(
            payment.path[1:-1], amounts, amounts[1:]
        ):
            fees[node] = fees.get(node, 0.0) + inbound - outbound
        payment.state = HtlcState.SETTLED
        self._drop_in_flight(payment)

    def fail(self, payment: "HtlcPayment") -> None:
        """Phase 2b: unwind every reservation; balances fully restored."""
        self._require_pending(payment)
        self._unwind(payment)
        payment.state = HtlcState.FAILED
        self._drop_in_flight(payment)

    def _release(self, payment: "HtlcPayment") -> Sequence[float]:
        """Move every reservation downstream; returns the hop amounts."""
        raise NotImplementedError

    def _unwind(self, payment: "HtlcPayment") -> None:
        """Hand every reservation back upstream, last hop first."""
        raise NotImplementedError

    # -- internals ---------------------------------------------------------------

    def _require_pending(self, payment: "HtlcPayment") -> None:
        if payment.state is not HtlcState.PENDING:
            raise HtlcError(
                f"payment {payment.payment_id} is {payment.state.value}, "
                "not pending"
            )

    def _drop_in_flight(self, payment: "HtlcPayment") -> None:
        if self._in_flight.pop(payment.payment_id, None) is None:
            return
        self._locked_total -= self._locked_totals.pop(payment.payment_id, 0.0)
        if not self._in_flight:
            # Re-anchor: with nothing in flight the total is exactly zero;
            # shed any rounding the incremental +/- accumulated.
            self._locked_total = 0.0

    @property
    def in_flight(self) -> Tuple["HtlcPayment", ...]:
        return tuple(self._in_flight.values())

    def locked_capital(self) -> float:
        """Total coins currently reserved by pending payments."""
        return self._locked_total


class HtlcRouter(HtlcLedger):
    """Two-phase (lock / settle-or-fail) multi-hop payment execution.

    Unlike :class:`~repro.network.routing.Router` (which applies balance
    updates instantaneously), the HTLC router separates locking from
    settlement so concurrent payments contend for capacity realistically.

    Args:
        graph: the channel graph (balances are mutated by lock/settle).
        fee: per-hop fee function.
    """

    def __init__(
        self, graph: ChannelGraph, fee: Optional[FeeFunction] = None
    ) -> None:
        super().__init__(fee)
        self.graph = graph

    def _pick_channel(
        self, src: Hashable, dst: Hashable, amount: float
    ) -> Tuple[Optional[Channel], str]:
        """Best funded channel with a free slot, plus the failure reason.

        Returns ``(channel, "")`` on success; ``(None, "no-balance")`` when
        no channel can fund the hop; ``(None, "no-slots")`` when at least
        one channel could fund it but its HTLC slots are exhausted.
        """
        best: Optional[Channel] = None
        funded = False
        for channel in self.graph.channels_between(src, dst):
            if channel.balance(src) < amount:
                continue
            funded = True
            if not channel.has_free_htlc_slot(src):
                continue
            if best is None or channel.balance(src) > best.balance(src):
                best = channel
        if best is not None:
            return best, ""
        return None, "no-slots" if funded else "no-balance"

    def lock(self, path: Sequence[Hashable], amount: float) -> HtlcPayment:
        """Phase 1: reserve funds along ``path`` for ``amount``.

        Walks sender -> receiver placing one HTLC per hop. If any hop
        lacks balance, all earlier reservations are unwound and the
        payment is returned in the FAILED state.
        """
        hop_amounts = self._check(path, amount)
        payment = HtlcPayment(
            payment_id=next(self._ids), path=tuple(path), amount=amount,
        )
        for (src, dst), hop_amount in zip(zip(path, path[1:]), hop_amounts):
            channel, reason = self._pick_channel(src, dst, hop_amount)
            if channel is None:
                return self._reject(payment, reason)
            # reserve: the hop amount leaves the sender's spendable balance
            # into escrow; settlement decides whether it lands on the other
            # side (settle) or returns (fail). The HTLC also occupies
            # one of the direction's slots until resolution.
            channel.withdraw(src, hop_amount)
            channel.open_htlc(src)
            if self.policy.has_upfront:
                # The upfront side is unconditional: a hop that was
                # actually offered pays its receiver even if a later hop
                # fails, and the unwind never refunds it. The charge is
                # ledger-only (no channel balance moves), so liquidity
                # and slot dynamics are independent of the upfront rate.
                payment.upfront_fees_per_node[dst] = (
                    payment.upfront_fees_per_node.get(dst, 0.0)
                    + self.policy.upfront(hop_amount)
                )
            payment.hops.append(Htlc(channel=channel, sender=src, amount=hop_amount))
        return self._track(payment)

    def _release(self, payment: HtlcPayment) -> List[float]:
        for htlc in payment.hops:
            receiver = htlc.channel.other(htlc.sender)
            htlc.channel.deposit(receiver, htlc.amount)
            htlc.channel.close_htlc(htlc.sender)
        return [h.amount for h in payment.hops]

    def _unwind(self, payment: HtlcPayment) -> None:
        for htlc in reversed(payment.hops):
            htlc.channel.deposit(htlc.sender, htlc.amount)
            htlc.channel.close_htlc(htlc.sender)
        payment.hops.clear()
