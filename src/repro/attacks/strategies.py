"""Adversarial traffic strategies: jamming, depletion, griefing.

Every builtin strategy runs the same *circuit* shape the Lightning attack
literature uses: the attacker controls both endpoints of a route through
the victim —

    attacker:src  ->  victim  ->  exit-neighbor  ->  attacker:dst

— so it alone decides when the in-flight HTLCs resolve. The entry channel
is attacker-funded; each exit channel is opened with a *pushed* balance
(Lightning's ``push_msat``) that buys the inbound liquidity the circuit's
last hop consumes. Both come out of the attacker's budget. What differs
between strategies is the resolution policy:

* :class:`SlowJamming` — hold every HTLC for ``hold_time``, then **fail**
  it. Balances and slots return, and the next tick re-jams. The victim's
  outbound directions stay locked almost continuously while the attacker
  pays nothing but committed (recoverable) capital.
* :class:`LiquidityDepletion` — **settle** circular self-payments, each
  permanently moving ``amount`` of the victim's outbound balance toward the
  chosen exit. The victim ends up unable to forward honest traffic even
  though no HTLC is held for long; the attack's cost is the routing fees.
* :class:`FeeGriefing` — fast probe payments that reach the attacker's own
  receiver and are **failed immediately** (the classic fail-at-the-last-hop
  probe), churning short-lived locks through every hop at high rate.

A tick launches up to the free concurrency at once. Nothing but the
tick's own locks runs between those launches, and a lock only takes
balance and slots, so an exit refused once stays refused until the tick
returns: a retry there is booked as a rejection
(:meth:`~repro.attacks.context.AttackContext.reject`) without asking the
ledger. Under a two-sided fee policy every retry still goes to the
ledger, since it pays upfront fees for the hops it was offered, and that
count can shrink within the tick as other exits' locks drain the entry
channel.

Strategies are registered in the ``attack`` plugin registry
(:data:`~repro.scenarios.registry.ATTACKS`), so scenarios name them by
string: ``AttackSpec("slow-jamming", {"budget": 1000.0})``.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Set,
    runtime_checkable,
)

from ..determinism import ordered_sum
from ..errors import ScenarioError
from .context import AttackContext, AttackResolveEvent, AttackTickEvent
from ..scenarios.registry import register_attack

__all__ = [
    "AttackStrategy",
    "CircuitAttack",
    "FeeGriefing",
    "LiquidityDepletion",
    "SlowJamming",
]

#: Node ids attacker endpoints are created under.
ATTACKER_SRC = "attacker:src"
ATTACKER_DST = "attacker:dst"


@runtime_checkable
class AttackStrategy(Protocol):
    """What the :class:`~repro.attacks.runner.AttackRunner` drives.

    A strategy declares its resource envelope (``budget``), optional
    targeting overrides (``victim``, ``slot_cap``), and reacts to the two
    adversarial event types on the engine's shared queue.
    """

    name: str
    budget: float
    victim: Optional[str]
    slot_cap: Optional[int]

    def start(self, ctx: AttackContext) -> None:
        """Open attacker channels and schedule the first events."""
        ...

    def on_tick(self, ctx: AttackContext, event: AttackTickEvent) -> None:
        """Launch adversarial HTLCs and schedule the next tick."""
        ...

    def on_resolve(self, ctx: AttackContext, event: AttackResolveEvent) -> None:
        """Resolve one held adversarial HTLC."""
        ...


class CircuitAttack:
    """Shared machinery of the attacker-controlled-circuit strategies.

    Args:
        budget: attacker capital endowment (channel funding + pushes + fees
            all come out of this).
        victim: node id to target; ``None`` selects the highest
            pair-weighted-betweenness node (the revenue hub).
        slot_cap: when set, the runner applies this ``max_accepted_htlcs``
            to every pre-attack channel (baseline *and* attacked run, so
            the comparison stays fair). Attacker-opened channels keep the
            Lightning default — the attacker gives itself ample slots.
        amount: size of each adversarial HTLC.
        rate: strategy wake-ups per unit time.
        hold_time: how long each HTLC is held before resolution.
        max_exits: at most this many victim neighbors get exit channels
            (``None`` = all of them).
        max_concurrent: cap on simultaneously held HTLCs (``None`` = sized
            automatically from the victim's outbound balances).
        headroom: over-provisioning factor on the per-exit HTLC quota —
            honest settlements *replenish* the victim's outbound balances
            mid-run, so pinning only the initial balance leaves refilled
            capacity un-jammed.
        start_time: simulated time the attack begins.
    """

    name = "circuit"
    #: Resolution policy: settle (move funds) or fail (restore funds).
    settle_on_resolve = False
    #: Launch a replacement immediately when an HTLC resolves.
    relaunch_on_resolve = False

    def __init__(
        self,
        budget: float = 500.0,
        victim: Optional[str] = None,
        slot_cap: Optional[int] = None,
        amount: float = 1.0,
        rate: float = 10.0,
        hold_time: float = 4.0,
        max_exits: Optional[int] = None,
        max_concurrent: Optional[int] = None,
        headroom: float = 1.5,
        start_time: float = 0.0,
    ) -> None:
        if budget < 0:
            raise ScenarioError(f"budget must be >= 0, got {budget}")
        if amount <= 0:
            raise ScenarioError(f"amount must be > 0, got {amount}")
        if rate <= 0:
            raise ScenarioError(f"rate must be > 0, got {rate}")
        if hold_time < 0:
            raise ScenarioError(f"hold_time must be >= 0, got {hold_time}")
        if max_exits is not None and max_exits < 1:
            raise ScenarioError(f"max_exits must be >= 1, got {max_exits}")
        if max_concurrent is not None and max_concurrent < 1:
            raise ScenarioError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if headroom < 1.0:
            raise ScenarioError(f"headroom must be >= 1, got {headroom}")
        if start_time < 0:
            raise ScenarioError(f"start_time must be >= 0, got {start_time}")
        self.budget = float(budget)
        self.victim = victim
        self.slot_cap = slot_cap
        self.amount = float(amount)
        self.rate = float(rate)
        self.hold_time = float(hold_time)
        self.max_exits = max_exits
        self.max_concurrent = max_concurrent
        self.headroom = float(headroom)
        self.start_time = float(start_time)
        self._concurrent = 0
        self._round_robin: List[Hashable] = []
        self._cursor = 0

    # -- targeting ----------------------------------------------------------

    def _victim_outbound(self, ctx: AttackContext) -> Dict[Hashable, float]:
        """Victim's spendable balance toward each neighbor, pre-attack."""
        out: Dict[Hashable, float] = {}
        for channel in ctx.graph.channels_of(ctx.victim):
            other = channel.other(ctx.victim)
            out[other] = out.get(other, 0.0) + channel.balance(ctx.victim)
        return out

    def _pick_exits(self, ctx: AttackContext) -> List[Hashable]:
        """Exit neighbors, richest victim-outbound first (stable ties)."""
        outbound = self._victim_outbound(ctx)
        exits = sorted(outbound, key=lambda n: (-outbound[n], str(n)))
        if self.max_exits is not None:
            exits = exits[: self.max_exits]
        return exits

    # -- capital layout (jam/grief: recoverable in-flight capital) ----------

    def _prepare(self, ctx: AttackContext) -> None:
        """Open the circuit channels and size the concurrent-HTLC budget."""
        outbound = self._victim_outbound(ctx)
        exits = self._pick_exits(ctx)
        if not exits:
            return
        entry_amount = ctx.hop_amounts(3, self.amount)[0]
        # Per exit: enough simultaneous HTLCs to pin the victim's whole
        # outbound balance in that direction (or its slot cap, if smaller).
        quotas: Dict[Hashable, int] = {}
        for n in exits:
            slots = ordered_sum(
                c.max_accepted_htlcs if c.max_accepted_htlcs is not None
                else 1 << 30
                for c in ctx.graph.channels_between(ctx.victim, n)
            )
            quota = math.ceil(outbound[n] * self.headroom / self.amount)
            quotas[n] = max(1, min(quota, slots))
        desired = ordered_sum(quotas.values())
        if self.max_concurrent is not None:
            desired = min(desired, self.max_concurrent)
        # One concurrent HTLC costs entry capital + pushed exit capital;
        # the 1.25 margin absorbs fee drift and imperfect recycling.
        per_htlc = (entry_amount + self.amount) * 1.25
        affordable = int(ctx.budget_remaining // per_htlc) if per_htlc else 0
        concurrent = min(desired, affordable)
        if concurrent < 1:
            return
        scale = concurrent / ordered_sum(quotas.values())
        scaled = {n: int(quotas[n] * scale) for n in exits}
        # floor() lost some slots; hand them back richest-exit first.
        shortfall = concurrent - ordered_sum(scaled.values())
        for n in exits:
            if shortfall <= 0:
                break
            scaled[n] += 1
            shortfall -= 1
        entry = ctx.open_channel(
            ATTACKER_SRC, ctx.victim, funding=concurrent * entry_amount
        )
        if entry is None:
            return
        for n in exits:
            if scaled[n] < 1:
                continue
            if ctx.open_channel(
                ATTACKER_DST, n, funding=0.0, push=scaled[n] * self.amount
            ) is None:
                scaled[n] = 0
        self._concurrent = ordered_sum(scaled.values())
        # Interleave exits so concurrent HTLCs spread evenly from the start.
        for layer in range(max(scaled.values(), default=0)):
            for n in exits:
                if scaled[n] > layer:
                    self._round_robin.append(n)

    def next_target(self, ctx: AttackContext) -> Optional[Hashable]:
        """Exit neighbor for the next HTLC (round-robin by default)."""
        if not self._round_robin:
            return None
        target = self._round_robin[self._cursor % len(self._round_robin)]
        self._cursor += 1
        return target

    def on_lock_rejected(self, ctx: AttackContext, target: Hashable) -> None:
        """Hook: a lock toward ``target`` was rejected (no balance/slot)."""

    # -- the event loop ------------------------------------------------------

    def start(self, ctx: AttackContext) -> None:
        self._prepare(ctx)
        if self._concurrent >= 1:
            ctx.schedule(AttackTickEvent(time=max(self.start_time, ctx.now)))

    def _launch(
        self, ctx: AttackContext, refused: Optional[Set[Hashable]] = None
    ) -> bool:
        """Launch one HTLC toward the next target.

        ``refused`` holds the exits refused earlier in the same tick: a
        target in it is booked as rejected without a ledger call, and a
        newly refused target is added. ``None`` sends every launch to the
        ledger.
        """
        target = self.next_target(ctx)
        if target is None:
            return False
        path = (ATTACKER_SRC, ctx.victim, target, ATTACKER_DST)
        if refused is not None and target in refused:
            ctx.reject(path, self.amount)
            self.on_lock_rejected(ctx, target)
            return False
        payment = ctx.lock(path, self.amount)
        if payment is None:
            if refused is not None:
                refused.add(target)
            self.on_lock_rejected(ctx, target)
            return False
        # Jitter (from the attacker's own deterministic RNG stream)
        # staggers resolutions: a fleet that releases all at once hands the
        # honest workload a periodic window of fully restored balances.
        hold = self.hold_time * (0.75 + 0.5 * float(ctx.rng.random()))
        ctx.schedule(
            AttackResolveEvent(
                time=ctx.now + hold, payment_id=payment.payment_id
            )
        )
        return True

    def on_tick(self, ctx: AttackContext, event: AttackTickEvent) -> None:
        """Fill the free concurrency, then schedule the next tick.

        An exit refused during this call stays refused until it returns
        (see the module docstring), so its retries skip the ledger —
        except under an upfront fee, where each retry's charge depends on
        how far it got.
        """
        upfront = ctx.engine.htlc_router.policy.has_upfront
        refused: Optional[Set[Hashable]] = None if upfront else set()
        for _ in range(max(0, self._concurrent - ctx.active_locks)):
            self._launch(ctx, refused)
        ctx.schedule(AttackTickEvent(time=ctx.now + 1.0 / self.rate))

    def on_resolve(self, ctx: AttackContext, event: AttackResolveEvent) -> None:
        resolved = ctx.resolve(event.payment_id, settle=self.settle_on_resolve)
        if resolved is not None and self.relaunch_on_resolve:
            self._launch(ctx)


@register_attack("slow-jamming", "jamming")
class SlowJamming(CircuitAttack):
    """Max-duration HTLCs that occupy slots and liquidity, then fail.

    The cheapest of the three: held capital is recovered on every fail, so
    ``budget_spent`` is only the committed channel capital — while the
    victim's outbound directions are pinned for ``hold_time`` out of every
    ``hold_time + 1/rate`` units of time.
    """

    name = "slow-jamming"
    settle_on_resolve = False


@register_attack("liquidity-depletion", "depletion")
class LiquidityDepletion(CircuitAttack):
    """Circular self-payments that drain the victim's outbound balances.

    Each settled circuit moves ``amount`` of the victim's balance toward
    the exit neighbor; the attacker's money comes back to its own receiving
    node minus routing fees. The pushed exit capital and the entry funding
    must cover the whole drained volume, so depletion wants a bigger budget
    than jamming — but leaves damage that persists with *no* HTLC held.
    """

    name = "liquidity-depletion"
    settle_on_resolve = True

    def __init__(self, **params) -> None:
        params.setdefault("hold_time", 0.1)
        params.setdefault("max_concurrent", 4)
        super().__init__(**params)
        self._remaining: Dict[Hashable, float] = {}

    def _prepare(self, ctx: AttackContext) -> None:
        outbound = self._victim_outbound(ctx)
        exits = self._pick_exits(ctx)
        if not exits:
            return
        entry_amount = ctx.hop_amounts(3, self.amount)[0]
        # Entry capital is *consumed* by settles (it ends up on the
        # victim's side), so draining D coins toward an exit costs
        # D * entry_amount/amount in entry funding plus D in pushed capital.
        # Honest forwarding keeps replenishing the victim's outbound
        # balances, so provision a multiple of the initial balance — as
        # much of the budget as a 6x re-drain factor can use.
        ratio = entry_amount / self.amount
        base_need = ordered_sum(outbound[n] for n in exits) * (1.0 + ratio)
        spendable = max(0.0, ctx.budget_remaining - entry_amount)
        factor = min(6.0, spendable / base_need) if base_need > 0 else 0.0
        entry_funding = entry_amount  # one in-flight HTLC of slack
        selected: Dict[Hashable, float] = {}
        for n in exits:
            drain = outbound[n] * factor
            cost = drain * (1.0 + ratio)
            remaining = ctx.budget_remaining - entry_funding - ordered_sum(
                d * (1.0 + ratio) for d in selected.values()
            )
            if remaining <= 0:
                break
            if cost > remaining:
                drain = remaining / (1.0 + ratio)
            if drain < self.amount:
                continue
            selected[n] = drain
        if not selected:
            return
        entry_funding += ordered_sum(selected.values()) * ratio
        entry = ctx.open_channel(ATTACKER_SRC, ctx.victim, funding=entry_funding)
        if entry is None:
            return
        for n, drain in selected.items():
            if ctx.open_channel(ATTACKER_DST, n, funding=0.0, push=drain) is None:
                continue
            self._remaining[n] = drain
        if self._remaining:
            # None = auto: one in-flight circuit per provisioned exit.
            cap = (
                self.max_concurrent if self.max_concurrent is not None
                else len(self._remaining)
            )
            self._concurrent = max(1, min(cap, len(self._remaining)))

    def next_target(self, ctx: AttackContext) -> Optional[Hashable]:
        """Drain the direction with the most victim balance left."""
        live = {n: r for n, r in self._remaining.items() if r >= self.amount}
        if not live:
            return None
        return min(live, key=lambda n: (-live[n], str(n)))

    def on_lock_rejected(self, ctx: AttackContext, target: Hashable) -> None:
        # The victim-side (or pushed exit-side) balance toward this
        # neighbor is momentarily gone. Honest traffic may replenish it,
        # so back off gradually instead of abandoning the direction.
        if target in self._remaining:
            self._remaining[target] = max(
                0.0, self._remaining[target] - self.amount
            )

    def on_resolve(self, ctx: AttackContext, event: AttackResolveEvent) -> None:
        resolved = ctx.resolve(event.payment_id, settle=True)
        if resolved is not None:
            # path is (src, victim, exit, dst) — book the drained amount.
            target = resolved.path[2]
            if target in self._remaining:
                self._remaining[target] = max(
                    0.0, self._remaining[target] - self.amount
                )


@register_attack("fee-griefing", "griefing")
class FeeGriefing(CircuitAttack):
    """Probe payments that fail at the last hop, wasting lock time.

    High-rate, short-hold probes: every hop on the route locks funds and a
    slot for ``hold_time``, then the attacker's receiver rejects the
    payment. No fee is ever paid (failed payments are free), making this
    the zero-cost harassment end of the spectrum.
    """

    name = "fee-griefing"
    settle_on_resolve = False
    relaunch_on_resolve = True

    def __init__(self, **params) -> None:
        params.setdefault("hold_time", 0.05)
        params.setdefault("rate", 20.0)
        super().__init__(**params)
