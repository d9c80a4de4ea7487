"""The discrete-event payment simulator's event loop and booking.

Drives a :class:`~repro.network.graph.ChannelGraph` with a Poisson payment
workload: each arrival routes along a capacity-feasible shortest path,
updates channel balances, and credits intermediaries their fees. This is
the "simulation-only evaluation" substrate: it produces the empirical
counterparts of the model's analytic quantities (``E_rev``, ``λ_e``,
feasibility), which bench E11 compares against Eq. 2/Eq. 3 predictions.

:class:`SimulationEngine` holds the event queue, scheduling, the route
RNG, the payment handling of both modes and the one function that books
a settled payment. Every payment's hops are checked and moved by the
:class:`~repro.network.htlc.HtlcLedger`: an instant payment is a reserve
released at once, an HTLC payment a lock settled after its hold. The
engine that runs is the subclass
:class:`~repro.simulation.fastpath.BatchedSimulationEngine`, which
supplies the route search and the array state the ledger works on.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Type

import numpy as np

from ..determinism import resolve_seed
from ..errors import SimulationError
from ..network.fees import ConstantFee, FeeFunction
from ..network.graph import ChannelGraph
from ..network.htlc import HtlcLedger, HtlcState
from ..network.routing import PaymentRouteRng
from ..obs import ObsSession, default_session
from ..transactions.workload import PoissonWorkload, Transaction
from .events import Event, EventQueue, HtlcResolveEvent, PaymentEvent
from .metrics import SimulationMetrics

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Runs payment workloads against a channel graph.

    The event loop, scheduling, the per-payment route RNG, payment
    handling and booking live here. The subclass
    :class:`~repro.simulation.fastpath.BatchedSimulationEngine` supplies
    how a path is found (``_find_path``) and the array state the ledger
    reserves hops on; construct that class, not this one.

    Args:
        graph: the network (mutated in place as balances move).
        fee: global per-hop fee function ``F`` (defaults to zero fees,
            which matches the pure-topology studies of Section IV).
        fee_forwarding: if True (default), each intermediary forwards
            the downstream amount plus downstream fees, mirroring how
            Lightning onions accumulate fees toward the sender. If False,
            every hop forwards exactly ``amount`` and each intermediary
            earns ``fee(amount)`` (the paper's simplified accounting).
        path_selection: shortest-path tie-breaking. ``"first"`` walks
            back from the receiver and takes the first predecessor at
            each hop (no RNG draw); ``"random"`` (the default) samples
            uniformly among *all* shortest paths, so that long-run edge
            traffic realises the equal-split shares of Eq. 2.
        seed: RNG seed for path tie-breaking and hold-time sampling.
            ``None`` draws one entropy seed via
            :func:`~repro.determinism.resolve_seed` (logged at WARNING)
            and surfaces it as ``metrics.seed``, so even "unseeded" runs
            can be replayed exactly.
        payment_mode: ``"instant"`` applies each payment atomically on
            arrival; ``"htlc"`` locks funds on arrival and settles after
            an exponential hold time (mean ``htlc_hold_mean``), so
            concurrent payments contend for in-flight capital — the
            opportunity-cost effect of Section II-C made concrete.
        htlc_hold_mean: mean lock duration in ``"htlc"`` mode.
        route_rng: ``"stream"`` draws path tie-breaks from one sequential
            RNG (historical behaviour); ``"payment"`` derives an
            independent RNG per payment from ``(seed, payment index)``,
            so each routing decision is independent of the other
            payments in the trace.

    Raises:
        SimulationError: when constructed directly rather than through
            a subclass; on an unknown ``payment_mode``,
            ``path_selection`` or ``route_rng``, ``htlc_hold_mean <= 0``,
            or ``fee_forwarding=False`` in ``"htlc"`` mode, where the
            HTLC router always forwards fees.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        fee: Optional[FeeFunction] = None,
        fee_forwarding: bool = True,
        path_selection: str = "random",
        seed: Optional[int] = 0,
        payment_mode: str = "instant",
        htlc_hold_mean: float = 0.1,
        route_rng: str = "stream",
        obs: Optional[ObsSession] = None,
    ) -> None:
        if type(self) is SimulationEngine:
            raise SimulationError(
                "SimulationEngine is the event loop's base class; "
                "construct BatchedSimulationEngine "
                "(repro.simulation.fastpath) instead"
            )
        if payment_mode not in ("instant", "htlc"):
            raise SimulationError(
                f"payment_mode must be 'instant' or 'htlc', got {payment_mode!r}"
            )
        if htlc_hold_mean <= 0:
            raise SimulationError("htlc_hold_mean must be > 0")
        if path_selection not in ("first", "random"):
            raise SimulationError(
                "path_selection must be 'first' or 'random', "
                f"got {path_selection!r}"
            )
        if route_rng not in ("stream", "payment"):
            raise SimulationError(
                f"route_rng must be 'stream' or 'payment', got {route_rng!r}"
            )
        if payment_mode == "htlc" and not fee_forwarding:
            raise SimulationError(
                "fee_forwarding=False is not modelled in 'htlc' mode: "
                "the HTLC router always forwards fees"
            )
        self.graph = graph
        # Resolve the seed once: with seed=None an entropy seed is drawn
        # *here* (loudly — see repro.determinism) and every downstream
        # consumer (stream tie-breaks, per-payment RNG bases, hold-time
        # sampling) derives from the same value, so the run is replayable
        # from SimulationMetrics.seed alone.
        self.seed = resolve_seed(seed)
        self.fee = fee if fee is not None else ConstantFee(0.0)
        self.fee_forwarding = fee_forwarding
        self.path_selection = path_selection
        self.payment_mode = payment_mode
        self.htlc_hold_mean = htlc_hold_mean
        self.route_rng = route_rng
        # The sequential tie-break stream of route_rng="stream".
        self._rng = np.random.default_rng(self.seed)
        self._route_base = self.seed % (2 ** 63)
        self._htlc_router = HtlcLedger(self.fee, fee_forwarding)
        self._pending_htlcs = {}
        self._hold_rng = np.random.default_rng(self.seed + 1)
        self.metrics = SimulationMetrics(seed=self.seed)
        self._queue = EventQueue()
        self._now = 0.0
        self._payment_seq = 0
        self._handlers: Dict[Type[Event], Callable[[Event], None]] = {}
        # Instrumentation handle (the shared no-op session by default);
        # counters and trace events only — never the RNG, never the
        # metrics, so obs-on and obs-off runs stay bit-identical.
        self._obs = obs if obs is not None else default_session()

    @property
    def now(self) -> float:
        return self._now

    @property
    def htlc_router(self) -> HtlcLedger:
        """The engine's HTLC router — shared with adversarial extensions so
        attacker locks and honest locks contend for the same slots and
        balances."""
        return self._htlc_router

    # -- scheduling -----------------------------------------------------------

    def schedule(self, event: Event) -> None:
        self._queue.push(event)

    def register_handler(
        self, event_type: Type[Event], handler: Callable[[Event], None]
    ) -> None:
        """Register a dispatcher for a custom :class:`Event` subclass.

        Extensions (e.g. :mod:`repro.attacks`) inject their own event types
        into the shared queue; ``run`` dispatches them to ``handler`` in
        time order, interleaved with the honest workload. Builtin event
        types cannot be overridden.
        """
        if issubclass(event_type, (PaymentEvent, HtlcResolveEvent)):
            # _dispatch routes by isinstance first, so a handler for a
            # builtin subclass would silently never fire.
            raise SimulationError(
                f"cannot override builtin event type {event_type.__name__}"
            )
        self._handlers[event_type] = handler

    def schedule_workload(
        self, workload: PoissonWorkload, horizon: float
    ) -> int:
        """Schedule all arrivals of ``workload`` within ``[0, horizon)``.

        Returns the number of payment events scheduled.
        """
        return self.schedule_transactions(workload.generate(horizon))

    def schedule_transactions(self, transactions: Iterable[Transaction]) -> int:
        """Schedule an explicit (pre-generated) transaction trace.

        Payments are stamped with consecutive trace indices (the
        ``route_rng="payment"`` key).
        """
        count = 0
        for tx in transactions:
            self.schedule(
                PaymentEvent(
                    time=tx.time,
                    sender=tx.sender,
                    receiver=tx.receiver,
                    amount=tx.amount,
                    index=self._payment_seq,
                )
            )
            self._payment_seq += 1
            count += 1
        return count

    # -- execution ----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationMetrics:
        """Process events in time order until the queue drains (or ``until``).

        Returns the accumulated metrics; ``metrics.horizon`` is set to the
        simulated span so rate comparisons are well-defined.
        """
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            event = self._queue.pop()
            self._now = event.time
            self._dispatch(event)
        self.metrics.horizon = until if until is not None else self._now
        return self.metrics

    def _dispatch(self, event: Event) -> None:
        if isinstance(event, PaymentEvent):
            self._pay(event.sender, event.receiver, event.amount, event.index)
        elif isinstance(event, HtlcResolveEvent):
            self._handle_htlc_resolve(event)
        else:
            handler = self._handlers.get(type(event))
            if handler is None:
                raise SimulationError(
                    f"unknown event type {type(event).__name__}"
                )
            handler(event)

    def _route_rng(self, index: int):
        """The route RNG of the payment at trace position ``index``.

        ``"stream"`` mode shares the engine's sequential stream. Ad-hoc
        events (``index == -1``) draw the next engine-local index, so
        directly-scheduled payments stay deterministic too.
        """
        if self.route_rng != "payment":
            return self._rng
        if index < 0:
            index = self._payment_seq
            self._payment_seq += 1
        return PaymentRouteRng(self._route_base, index)

    def _fail_payment(self, reason: str) -> None:
        self.metrics.failed += 1
        self.metrics.failure_reasons[reason] += 1

    def _pay(
        self, sender: Hashable, receiver: Hashable, amount: float, index: int
    ) -> None:
        """Route one payment and reserve its hops on the ledger.

        An instant payment releases its hops to the receiver at once and
        books as settled; it fails with ``split-balance`` when a hop
        cannot carry its amount plus downstream fees, or
        ``no-htlc-slots`` when held HTLCs fill a hop's slots. An HTLC
        payment is held until its resolve event. ``index`` keys the
        payment's route RNG under ``route_rng="payment"``.
        """
        self.metrics.attempted += 1
        amount = float(amount)
        path = self._find_path(sender, receiver, amount, index)
        if isinstance(path, str):
            self._fail_payment(path)
            return
        if self.payment_mode == "htlc":
            self._lock(path, amount)
            return
        ledger = self._htlc_router
        amounts = ledger._hop_amounts(len(path) - 1, amount)
        reason, entries = ledger.reserve(path, amounts)
        if ledger.policy.has_upfront:
            self._book_upfront(
                sender, ledger.upfront_fees(path, amounts, len(entries))
            )
        if reason:
            self._fail_payment(
                "no-htlc-slots" if reason == "no-slots" else "split-balance"
            )
            return
        ledger.release(entries, amounts)
        self._book_settled(path, amount, amounts)

    def _lock(self, path: List[Hashable], amount: float) -> None:
        """Lock now, settle after an exponential hold (HTLC semantics)."""
        payment = self._htlc_router.lock(path, amount)
        if payment.upfront_fees_per_node:
            self._book_upfront(payment.sender, payment.upfront_fees_per_node)
        obs = self._obs
        if payment.state is not HtlcState.PENDING:
            reason = (
                "no-htlc-slots" if payment.failure_reason == "no-slots"
                else "lock-contention"
            )
            self._fail_payment(reason)
            if obs.enabled:
                obs.registry.counter(f"htlc.lock_failed.{reason}").inc()
                if reason == "no-htlc-slots":
                    obs.registry.counter("htlc.slot_exhaustion").inc()
                obs.event(
                    "htlc.fail", t=self._now, reason=reason,
                    hops=len(path) - 1,
                )
            return
        metrics = self.metrics
        metrics.htlc_locked_peak = max(
            metrics.htlc_locked_peak, self._htlc_router.locked_capital()
        )
        if obs.enabled:
            obs.registry.counter("htlc.locks").inc()
            obs.event(
                "htlc.lock", t=self._now,
                payment_id=payment.payment_id, hops=len(path) - 1,
            )
        self._pending_htlcs[payment.payment_id] = payment
        hold = float(self._hold_rng.exponential(self.htlc_hold_mean))
        self.schedule(
            HtlcResolveEvent(time=self._now + hold, payment_id=payment.payment_id)
        )

    def _handle_htlc_resolve(self, event: HtlcResolveEvent) -> None:
        payment = self._pending_htlcs.pop(event.payment_id, None)
        if payment is None:
            raise SimulationError(
                f"resolve for unknown HTLC payment {event.payment_id}"
            )
        self._htlc_router.settle(payment)
        obs = self._obs
        if obs.enabled:
            obs.registry.counter("htlc.settles").inc()
            obs.event(
                "htlc.settle", t=event.time, payment_id=event.payment_id
            )
        self._book_settled(payment.path, payment.amount, payment.amounts)

    def _book_settled(
        self,
        path: Sequence[Hashable],
        amount: float,
        amounts: Sequence[float],
    ) -> None:
        """Book one settled payment in both modes.

        The sender pays ``amounts[0] - amount``; each intermediary earns
        its inbound minus its outbound hop amount, plus the ledger's flat
        fee when fees are not forwarded.
        """
        metrics = self.metrics
        sender = path[0]
        metrics.succeeded += 1
        metrics.volume_delivered += amount
        metrics.sent[sender] += 1
        metrics.received[path[-1]] += 1
        metrics.fees_paid[sender] += amounts[0] - amount
        flat = self._htlc_router.flat_fee(amount)
        revenue = metrics.revenue
        for node, inbound, outbound in zip(path[1:-1], amounts, amounts[1:]):
            revenue[node] += inbound - outbound + flat
        edge_traffic = metrics.edge_traffic
        for edge in zip(path, path[1:]):
            edge_traffic[edge] += 1

    def _book_upfront(
        self, sender: Hashable, fees: Dict[Hashable, float]
    ) -> None:
        """Book the unconditional per-attempt fees of one attempt.

        The hops actually offered pay their receiving nodes whether or
        not the payment settles (and even when a later hop failed) —
        the jamming countermeasure: a failed or jamming attempt is no
        longer free.
        """
        metrics = self.metrics
        metrics.upfront_fees_paid[sender] += sum(fees.values())
        for node, fee in fees.items():
            metrics.upfront_revenue[node] += fee
