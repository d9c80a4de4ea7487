"""Hash time-locked contracts: atomic multi-hop payments (footnote 1).

The paper routes multi-hop payments assuming "techniques, namely HTLCs, to
ensure that the transactions on a path will be executed atomically, either
all or none". This module implements that substrate, and it is the one
place where a hop is checked and moved. :meth:`HtlcLedger.reserve` checks
every hop of a path (balance, then a free slot) and only then reserves
them all: each hop amount leaves the upstream balance into escrow and
occupies one slot of that direction. :meth:`HtlcLedger.release` frees the
slots and credits the amounts downstream (settle) or back upstream (fail).
A failed reserve touches nothing, so all or none holds by construction.

An instant payment is a reserve followed at once by a release. A held
payment — HTLC mode and attacker locks — goes through :meth:`lock`, then
:meth:`settle` or :meth:`fail`, which keep an :class:`HtlcPayment` and the
in-flight map. Between lock and resolution the reserved funds are
unavailable to other payments — which is exactly the in-flight-capital
effect that makes the opportunity cost of Section II-C real.

The ledger reserves hops on the simulator's array state: one balance per
directed CSR entry and one in-flight slot count per entry, capped by the
channel's ``max_accepted_htlcs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..determinism import ordered_sum
from ..errors import HtlcError, RoutingError
from .fees import ConstantFee, FeeFunction, FeePolicy

__all__ = ["HtlcError", "HtlcLedger", "HtlcState", "HtlcPayment"]


class HtlcState(Enum):
    """Lifecycle of one in-flight payment."""

    PENDING = "pending"      # locks placed, awaiting settle/fail
    SETTLED = "settled"      # preimage revealed, funds finalised
    FAILED = "failed"        # never reserved, or handed back upstream


@dataclass
class HtlcPayment:
    """A chain of per-hop HTLCs for one held multi-hop payment.

    ``entries`` and ``amounts`` are the CSR entries reserved and the hop
    amount on each; they stay after settle and are cleared by a fail, and
    are empty when the lock failed. ``failure_reason`` is set when a
    :meth:`HtlcLedger.lock` fails: ``"no-balance"`` (the hop's channel
    could not fund the amount, or there is no channel) or
    ``"no-slots"`` (a channel had the balance but every HTLC slot in the
    needed direction was occupied — the jammed case).

    ``upfront_fees_per_node`` records the per-attempt side of a
    two-sided :class:`~repro.network.fees.FeePolicy`: each hop actually
    offered credits its receiving node, settle or not, and a fail never
    refunds it. Empty under a success-only fee.
    """

    payment_id: int
    path: Tuple[Hashable, ...]
    amount: float
    state: HtlcState = HtlcState.PENDING
    entries: List[int] = field(default_factory=list)
    amounts: List[float] = field(default_factory=list)
    failure_reason: str = ""
    upfront_fees_per_node: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def sender(self) -> Hashable:
        return self.path[0]

    @property
    def total_locked(self) -> float:
        return ordered_sum(self.amounts)

    @property
    def fees_per_node(self) -> Dict[Hashable, float]:
        """Each intermediary's fee once settled: the difference between
        its inbound and outbound hop amounts (empty until then)."""
        fees: Dict[Hashable, float] = {}
        if self.state is HtlcState.SETTLED:
            amounts = self.amounts
            for node, inbound, outbound in zip(
                self.path[1:-1], amounts, amounts[1:]
            ):
                fees[node] = fees.get(node, 0.0) + inbound - outbound
        return fees

    @property
    def upfront_total(self) -> float:
        """All upfront fees the sender owes for this attempt."""
        return ordered_sum(self.upfront_fees_per_node.values())


class HtlcLedger:
    """Reserve / release of multi-hop payments on array state.

    Owns the fee, its two-sided policy and the forwarding decision, the
    ``(hops, amount)`` hop-amount memo, and the in-flight map of held
    payments with its running ``locked_capital`` total. Constructed with
    the engine, so fees price routes at once, and bound by :meth:`bind`
    when the engine freezes its array state.

    Args:
        fee: the per-hop fee function ``F`` (zero by default).
        forwarding: with fee forwarding (the default) each hop carries
            the delivered amount plus the fees of every intermediary
            downstream of it; without, every hop carries the amount and
            each intermediary earns the flat ``fee(amount)``.
    """

    def __init__(
        self, fee: Optional[FeeFunction] = None, forwarding: bool = True
    ) -> None:
        self.fee = fee if fee is not None else ConstantFee(0.0)
        self.forwarding = forwarding
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
        """Reserve hops on ``state`` from now on (``None`` unbinds).

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
        all fees owed to intermediaries downstream of it; without, every
        hop carries ``amount``."""
        if not self.forwarding:
            return (amount,) * hops
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

    def flat_fee(self, amount: float) -> float:
        """What each intermediary earns on top of its inbound minus
        outbound amount: ``fee(amount)`` without fee forwarding, else 0."""
        return 0.0 if self.forwarding else self.fee(amount)

    def upfront_fees(
        self, path: Sequence[Hashable], amounts: Sequence[float], offered: int
    ) -> Dict[Hashable, float]:
        """The per-attempt fees of the first ``offered`` hops of ``path``,
        keyed by each hop's receiving node.

        The upfront side is unconditional: a hop that was offered pays
        its receiver even if a later hop fails. The charge is ledger-only
        (no balance moves), so liquidity and slot dynamics are
        independent of the upfront rate.
        """
        fees: Dict[Hashable, float] = {}
        upfront = self.policy.upfront
        for dst, amount in zip(path[1:offered + 1], amounts):
            fees[dst] = fees.get(dst, 0.0) + upfront(amount)
        return fees

    # -- the two primitives ---------------------------------------------------

    def reserve(
        self, path: Sequence[Hashable], amounts: Sequence[float]
    ) -> Tuple[str, List[int]]:
        """Reserve every hop of ``path`` or none.

        Checks the hops sender -> receiver: the hop's balance must cover
        its amount (else ``"no-balance"``, also when there is no channel)
        and the direction must have a free slot (``"no-slots"``, checked
        second). Only when every hop passes does each amount leave the
        upstream balance into escrow and occupy one slot. Returns
        ``("", entries)`` then; otherwise the first failing reason and
        the entries of the hops offered before it, with nothing
        reserved. ``path`` must not repeat a directed hop.
        """
        state = self._state
        entry_of = state.name_pair_entry.get
        balances = state.balances
        slots_used = state.slots_used
        slot_cap = state.slot_cap
        entries: List[int] = []
        src = path[0]
        for dst, amount in zip(path[1:], amounts):
            entry = entry_of((src, dst))
            if entry is None or balances[entry] < amount:
                return "no-balance", entries
            if slots_used[entry] >= slot_cap[entry]:
                return "no-slots", entries
            entries.append(entry)
            src = dst
        for entry, amount in zip(entries, amounts):
            balances[entry] -= amount
            slots_used[entry] += 1
        return "", entries

    def release(
        self, entries: Sequence[int], amounts: Sequence[float],
        settle: bool = True,
    ) -> None:
        """Free the slot of each reserved hop and credit its amount to the
        downstream party (``settle``) or back to the upstream one."""
        state = self._state
        balances = state.balances
        slots_used = state.slots_used
        rev_entry = state.rev_entry
        for entry, amount in zip(entries, amounts):
            balances[rev_entry[entry] if settle else entry] += amount
            slots_used[entry] -= 1

    # -- held payments ----------------------------------------------------------

    def lock(self, path: Sequence[Hashable], amount: float) -> HtlcPayment:
        """Phase 1: reserve funds along ``path`` for ``amount`` and hold
        them.

        The payment comes back PENDING and in flight, or FAILED with the
        first failing hop's ``failure_reason`` and nothing reserved. The
        hops offered before the failing one still carry their upfront
        fees. A path that takes one directed hop twice is refused.
        """
        if len(path) < 2:
            raise RoutingError("path needs at least one hop")
        if len(set(zip(path, path[1:]))) < len(path) - 1:
            # reserve checks every hop against the balance before any
            # is reserved, so a hop taken twice could overdraw it.
            raise RoutingError(f"path {list(path)!r} repeats a hop")
        if amount <= 0:
            raise HtlcError(f"amount must be > 0, got {amount}")
        if self._state is None:
            raise HtlcError(
                "the engine's HTLC router binds to array state at the "
                "first run() call; lock() is only available inside a run"
            )
        amounts = self._hop_amounts(len(path) - 1, amount)
        payment = HtlcPayment(next(self._ids), tuple(path), amount)
        reason, entries = self.reserve(path, amounts)
        if self.policy.has_upfront:
            payment.upfront_fees_per_node = self.upfront_fees(
                path, amounts, len(entries)
            )
        if reason:
            payment.state = HtlcState.FAILED
            payment.failure_reason = reason
            return payment
        payment.entries = entries
        payment.amounts = list(amounts)
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
        self.release(payment.entries, payment.amounts)
        payment.state = HtlcState.SETTLED
        self._drop_in_flight(payment)

    def fail(self, payment: HtlcPayment) -> None:
        """Phase 2b: hand every reservation back upstream."""
        self._require_pending(payment)
        self.release(payment.entries, payment.amounts, settle=False)
        payment.entries.clear()
        payment.amounts.clear()
        payment.state = HtlcState.FAILED
        self._drop_in_flight(payment)

    # -- internals ---------------------------------------------------------------

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

    def locked_capital(self) -> float:
        """Total coins currently reserved by pending payments."""
        return self._locked_total
