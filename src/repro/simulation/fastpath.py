"""The batched simulation backend: vectorised routing over view arrays.

The event engine pays a per-payment python cost that dominates large
runs: rebuilding the reduced :class:`~repro.network.views.GraphView`
after every successful payment (an O(channels) python loop).
:class:`BatchedSimulationEngine` removes it while producing *exactly*
the same result:

* the full directed view is frozen **once**; balances live in one
  mutable float array indexed by CSR entry, and the reduced subgraph for
  a payment of size ``x`` is the boolean mask ``balances >= x`` — no
  python per-channel loop, ever;
* every payment is routed from current state over the masked entries.
  Below :data:`~repro.network.views.SMALL_GRAPH_NODES` nodes this is
  :func:`~repro.network.routing.guided_bfs_structure` plus the walk the
  event engine's :class:`~repro.network.routing.Router` runs on its
  reduced view. The search is the ``Router``'s python BFS, cut down to
  the sender-receiver shortest-path DAG: it admits a node at level
  ``k`` only if ``k`` plus its hop distance to the receiver in the
  unmasked view (one BFS per receiver, cached) stays within a bound.
  Masking only removes entries, so that distance never overestimates
  the masked one, and every node on a masked shortest path is admitted
  at its true level through all its predecessors, in BFS pop order:
  path counts, predecessor order and walk draws are unchanged. At most
  two pruned passes run before the full BFS takes over. On
  ``attack-htlc`` (BA-100) this cuts the ~50 µs whole-graph search per
  payment to ~14 µs. On larger graphs the route is
  :func:`~repro.network.routing.bidirectional_route`, a python search
  from both ends that builds only the sender-receiver shortest-path
  DAG; it shares no code with the ``Router``'s numpy CSR search, but
  returns the same path. The split at 150 nodes stays: the guided
  search there lost 6% ``work_per_s`` on ``simulate-large``, because a
  BA-200 run needs ~150 receiver rows at ~50 µs each, and the
  bidirectional search at 100 nodes gained only 9% on ``attack-htlc``;
* routing decisions therefore match the event engine payment for
  payment, including the RNG draws of ``path_selection="random"``,
  which weight the same path counts in the same trace order;
* per-node metrics accumulate into arrays (scatter-adds) and convert to
  the dict form of :class:`SimulationMetrics` once, at the end; final
  balances are written back to the channels once, at the end.

The backend runs over simple graphs (no parallel channels) in both
payment modes. ``"instant"`` replays a pre-generated trace in order.
``"htlc"`` adds per-entry in-flight slot counters and an array-backed
HTLC router (lock / settle-or-fail over escrowed array balances) plus
the same event-queue API as the event engine
(``schedule`` / ``register_handler`` / ``run``), so HTLC holds and
attack-strategy event injection replay **bit-identically** to the event
backend — same failure sets (including ``no-htlc-slots``), same metrics,
same final balances. The array state freezes at the first ``run()``
call, after attack strategies opened their channels.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from ..determinism import resolve_seed
from ..errors import HtlcError, RoutingError, SimulationError
from ..network.fees import ConstantFee, FeeFunction, FeePolicy
from ..network.graph import ChannelGraph
from ..network.htlc import HtlcState
from ..network.routing import (
    PaymentRouteRng,
    Router,
    bidirectional_route,
    guided_bfs_structure,
    hops_to_target,
    walk_small,
)
from ..network.views import SMALL_GRAPH_NODES, GraphView
from ..obs import ObsSession, default_session
from ..transactions.workload import (
    SELF_PAIR,
    UNKNOWN_ENDPOINT,
    PoissonWorkload,
    TraceArrays,
    Transaction,
)
from .events import Event, EventQueue, HtlcResolveEvent, PaymentEvent
from .metrics import SimulationMetrics

__all__ = ["BatchedSimulationEngine"]


class BatchedSimulationEngine:
    """Drives a payment trace over frozen view arrays.

    Constructor arguments mirror :class:`SimulationEngine` so the two
    backends are interchangeable behind
    :class:`~repro.scenarios.specs.SimulationSpec`.
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
        if payment_mode not in ("instant", "htlc"):
            raise SimulationError(
                f"payment_mode must be 'instant' or 'htlc', "
                f"got {payment_mode!r}"
            )
        if htlc_hold_mean <= 0:
            raise SimulationError("htlc_hold_mean must be > 0")
        if route_rng not in ("stream", "payment"):
            raise SimulationError(
                f"route_rng must be 'stream' or 'payment', got {route_rng!r}"
            )
        self.graph = graph
        # Resolve the seed once (entropy drawn loudly when seed=None —
        # see repro.determinism) so the router and the per-payment RNG
        # base derive from one replayable value, mirroring the event
        # engine exactly.
        self.seed = resolve_seed(seed)
        # One Router, configured exactly like the event engine's: it owns
        # the fee schedule (_hop_amounts) and — in "stream" mode — the
        # sequential tie-break RNG whose draw order the fastpath
        # reproduces.
        self.router = Router(
            graph, fee=fee, fee_forwarding=fee_forwarding,
            path_selection=path_selection, seed=self.seed,
        )
        self.payment_mode = payment_mode
        self.htlc_hold_mean = htlc_hold_mean
        self.route_rng = route_rng
        self._route_base = self.seed % (2 ** 63)
        self.metrics = SimulationMetrics(seed=self.seed)
        # Instrumentation handle: the shared no-op session unless the
        # caller passed one or REPRO_OBS opted the process in. Timing
        # and counters never touch the RNG or results above — obs-on
        # and obs-off runs are bit-identical (tests/obs/test_parity.py).
        self._obs = obs if obs is not None else default_session()
        # Event-queue machinery, mirroring the event engine field for
        # field so attack extensions drive either backend unchanged. The
        # hold RNG derives from seed + 1 exactly like the event engine's,
        # so honest hold times match draw for draw.
        self._queue = EventQueue()
        self._now = 0.0
        self._payment_seq = 0
        self._handlers: Dict[Type[Event], Callable[[Event], None]] = {}
        self._hold_rng = np.random.default_rng(self.seed + 1)
        self._pending_htlcs: Dict[int, Tuple["_ArrayHtlcPayment", PaymentEvent]] = {}
        # The array-backed HTLC router exists from construction (attack
        # strategies price routes via hop_amounts before any run), but
        # binds to frozen array state lazily at the first run() call —
        # after strategies opened their channels.
        self._array_router = _ArrayHtlcRouter(self.router.fee)
        self._state: Optional[_ArrayState] = None

    # -- public API -----------------------------------------------------------

    def run_trace(
        self, trace: Union[TraceArrays, Sequence[Transaction]]
    ) -> SimulationMetrics:
        """Process every payment of ``trace`` and return the metrics.

        Accepts either :class:`TraceArrays` or a transaction sequence
        (columnised internally against the graph's node order). In
        ``"instant"`` mode, repeated calls accumulate into the same
        metrics, like scheduling more events on the event engine; each
        call re-freezes the graph, so mutations between calls are picked
        up. In ``"htlc"`` mode the trace is scheduled on the event queue
        and :meth:`run` drains it — exactly what the event backend does
        for the same spec, resolve events past the last payment
        included.
        """
        if self.payment_mode == "htlc":
            if isinstance(trace, TraceArrays):
                self.schedule_transactions(
                    trace.to_transactions(),
                    indices=(int(i) for i in trace.indices),
                )
            else:
                self.schedule_transactions(list(trace))
            return self.run()
        view = self.graph.view(directed=True)
        self._check_graph(view)
        trace = self._columnise(trace, view)
        if len(trace) > 1 and bool((np.diff(trace.times) < 0).any()):
            # The event queue would reorder these; the batched loop will
            # not — refuse rather than silently diverge.
            raise SimulationError(
                "batched traces must be time-ordered (the event engine "
                "sorts its queue; the batched backend replays in order)"
            )
        run = _ArrayState(self, view)
        run.execute(trace)
        run.finalize()
        if len(trace):
            self.metrics.horizon = float(trace.times[-1])
        self._publish_obs(run)
        return self.metrics

    # -- event-queue API (htlc mode, attack injection) ------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def htlc_router(self) -> "_ArrayHtlcRouter":
        """The engine's HTLC router — shared with adversarial extensions
        so attacker locks and honest locks contend for the same slots
        and balances, exactly as on the event backend."""
        return self._array_router

    def schedule(self, event: Event) -> None:
        self._queue.push(event)

    def register_handler(
        self, event_type: Type[Event], handler: Callable[[Event], None]
    ) -> None:
        """Register a dispatcher for a custom :class:`Event` subclass.

        Same contract as the event engine: extension events interleave
        with the honest workload in time order; builtin event types
        cannot be overridden.
        """
        if issubclass(event_type, (PaymentEvent, HtlcResolveEvent)):
            raise SimulationError(
                f"cannot override builtin event type {event_type.__name__}"
            )
        self._handlers[event_type] = handler

    def schedule_workload(
        self, workload: PoissonWorkload, horizon: float
    ) -> int:
        """Schedule all arrivals of ``workload`` within ``[0, horizon)``."""
        return self.schedule_transactions(workload.generate(horizon))

    def schedule_transactions(
        self,
        transactions: Iterable[Transaction],
        indices: Optional[Iterable[int]] = None,
    ) -> int:
        """Schedule an explicit transaction trace (event-engine twin)."""
        count = 0
        index_iter = iter(indices) if indices is not None else None
        for tx in transactions:
            if index_iter is not None:
                index = next(index_iter)
                self._payment_seq = max(self._payment_seq, index + 1)
            else:
                index = self._payment_seq
                self._payment_seq += 1
            self.schedule(
                PaymentEvent(
                    time=tx.time,
                    sender=tx.sender,
                    receiver=tx.receiver,
                    amount=tx.amount,
                    index=index,
                )
            )
            count += 1
        return count

    def run(self, until: Optional[float] = None) -> SimulationMetrics:
        """Process queued events in time order (event-engine twin).

        The array state is frozen at the first call — graph mutations
        after that (other than balance moves made through this engine)
        are not picked up. Final balances are written back to the
        channels at the end of every call.
        """
        state = self._ensure_state()
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            event = self._queue.pop()
            self._now = event.time
            self._dispatch(event, state)
        self.metrics.horizon = until if until is not None else self._now
        state.write_back()
        self._publish_obs(state)
        return self.metrics

    def _ensure_state(self) -> "_ArrayState":
        if self._state is None:
            view = self.graph.view(directed=True)
            self._check_graph(view)
            self._state = _ArrayState(self, view)
            self._array_router.bind(self._state)
        return self._state

    def _check_graph(self, view: GraphView) -> None:
        for channels in view.pair_channels:
            if len(channels) > 1:
                raise SimulationError(
                    "the batched backend requires a simple channel graph; "
                    f"parallel channels {channels} found (use the event "
                    "backend)"
                )

    def _dispatch(self, event: Event, state: "_ArrayState") -> None:
        if isinstance(event, PaymentEvent):
            if self.payment_mode == "htlc":
                self._handle_payment_htlc(event, state)
            else:
                self._handle_payment_instant(event, state)
        elif isinstance(event, HtlcResolveEvent):
            self._handle_htlc_resolve(event)
        else:
            handler = self._handlers.get(type(event))
            if handler is None:
                raise SimulationError(
                    f"unknown event type {type(event).__name__}"
                )
            handler(event)

    def _event_payment_rng(self, event: PaymentEvent):
        """The event's route RNG (event-engine twin, sharing the
        router's stream in ``"stream"`` mode so draw order matches)."""
        if self.route_rng != "payment":
            return self.router._rng
        index = event.index
        if index < 0:
            index = self._payment_seq
            self._payment_seq += 1
        return PaymentRouteRng(self._route_base, index)

    def _handle_payment_htlc(
        self, event: PaymentEvent, state: "_ArrayState"
    ) -> None:
        """Lock now, settle after an exponential hold (event-engine twin)."""
        metrics = self.metrics
        metrics.attempted += 1
        # The event engine resolves the RNG before routing (argument
        # evaluation), consuming an index even for payments that fail
        # validation — keep the sequence aligned.
        rng = self._event_payment_rng(event)
        if event.sender == event.receiver:
            metrics.failed += 1
            metrics.failure_reasons["other"] += 1
            return
        s = state.node_index.get(event.sender)
        r = state.node_index.get(event.receiver)
        if s is None or r is None:
            metrics.failed += 1
            metrics.failure_reasons["unknown-endpoint"] += 1
            return
        path = state.route(s, r, float(event.amount), rng)
        if path is None:
            metrics.failed += 1
            metrics.failure_reasons["no-capacity-path"] += 1
            return
        nodes = state.view.nodes
        payment = self._array_router.lock(
            [nodes[i] for i in path], event.amount
        )
        self._book_upfront_attempt(payment, event.sender)
        obs = self._obs
        if payment.state is not HtlcState.PENDING:
            metrics.failed += 1
            reason = (
                "no-htlc-slots" if payment.failure_reason == "no-slots"
                else "lock-contention"
            )
            metrics.failure_reasons[reason] += 1
            if obs.enabled:
                obs.registry.counter(f"htlc.lock_failed.{reason}").inc()
                if reason == "no-htlc-slots":
                    obs.registry.counter("htlc.slot_exhaustion").inc()
                obs.event(
                    "htlc.fail", t=event.time, reason=reason,
                    hops=len(path) - 1,
                )
            return
        metrics.htlc_locked_peak = max(
            metrics.htlc_locked_peak, self._array_router.locked_capital()
        )
        if obs.enabled:
            obs.registry.counter("htlc.locks").inc()
            obs.event(
                "htlc.lock", t=event.time,
                payment_id=payment.payment_id, hops=len(path) - 1,
            )
        self._pending_htlcs[payment.payment_id] = (payment, event)
        hold = float(self._hold_rng.exponential(self.htlc_hold_mean))
        self.schedule(
            HtlcResolveEvent(time=event.time + hold, payment_id=payment.payment_id)
        )

    def _handle_htlc_resolve(self, event: HtlcResolveEvent) -> None:
        entry = self._pending_htlcs.pop(event.payment_id, None)
        if entry is None:
            raise SimulationError(
                f"resolve for unknown HTLC payment {event.payment_id}"
            )
        payment, origin = entry
        self._array_router.settle(payment)
        obs = self._obs
        if obs.enabled:
            obs.registry.counter("htlc.settles").inc()
            obs.event(
                "htlc.settle", t=event.time, payment_id=event.payment_id
            )
        metrics = self.metrics
        metrics.succeeded += 1
        metrics.volume_delivered += origin.amount
        metrics.sent[origin.sender] += 1
        metrics.received[origin.receiver] += 1
        metrics.fees_paid[origin.sender] += sum(
            payment.fees_per_node.values()
        )
        for node, fee in payment.fees_per_node.items():
            metrics.revenue[node] += fee
        for src, dst in zip(payment.path, payment.path[1:]):
            metrics.edge_traffic[(src, dst)] += 1

    def _handle_payment_instant(
        self, event: PaymentEvent, state: "_ArrayState"
    ) -> None:
        """Apply a queued payment atomically (event-engine twin).

        Metrics are booked straight into the dicts (not the trace-mode
        array accumulators), matching the event engine's accumulation
        order float for float.
        """
        metrics = self.metrics
        metrics.attempted += 1
        rng = self._event_payment_rng(event)
        if event.sender == event.receiver:
            metrics.failed += 1
            metrics.failure_reasons["other"] += 1
            return
        s = state.node_index.get(event.sender)
        r = state.node_index.get(event.receiver)
        if s is None or r is None:
            metrics.failed += 1
            metrics.failure_reasons["unknown-endpoint"] += 1
            return
        amount = float(event.amount)
        path = state.route(s, r, amount, rng)
        if path is None:
            metrics.failed += 1
            metrics.failure_reasons["no-capacity-path"] += 1
            return
        hops = len(path) - 1
        hop_amounts = self.router._hop_amounts(hops, amount)
        entries = [
            state.pair_entry[(path[i], path[i + 1])] for i in range(hops)
        ]
        for entry, hop_amount in zip(entries, hop_amounts):
            if state.balances[entry] < hop_amount:
                metrics.failed += 1
                metrics.failure_reasons["split-balance"] += 1
                return
        state.apply_balances(entries, hop_amounts)
        nodes = state.view.nodes
        names = [nodes[i] for i in path]
        metrics.succeeded += 1
        metrics.volume_delivered += amount
        metrics.sent[event.sender] += 1
        metrics.received[event.receiver] += 1
        metrics.fees_paid[event.sender] += hop_amounts[0] - amount
        fee_fn = self.router.fee if not self.router.fee_forwarding else None
        for i in range(1, hops):
            fee = hop_amounts[i - 1] - hop_amounts[i]
            if fee_fn is not None:
                fee += fee_fn(amount)
            metrics.revenue[names[i]] += fee
        for src, dst in zip(names, names[1:]):
            metrics.edge_traffic[(src, dst)] += 1
        policy = self._array_router.policy
        if policy.has_upfront:
            total = 0.0
            for i in range(hops):
                charge = policy.upfront(hop_amounts[i])
                metrics.upfront_revenue[names[i + 1]] += charge
                total += charge
            metrics.upfront_fees_paid[event.sender] += total

    def _book_upfront_attempt(
        self, payment: "_ArrayHtlcPayment", sender: Hashable
    ) -> None:
        """Book the unconditional per-attempt fees of one lock attempt."""
        if not payment.upfront_fees_per_node:
            return
        metrics = self.metrics
        metrics.upfront_fees_paid[sender] += payment.upfront_total
        for node, fee in payment.upfront_fees_per_node.items():
            metrics.upfront_revenue[node] += fee

    def _publish_obs(self, state: "_ArrayState") -> None:
        """Publish the route searches since the last publish as the
        ``fastpath.payments`` counter (no-op when disabled).

        Publishing the delta lets repeated ``run()`` calls — and
        multiple engines sharing one session, like an attack's
        baseline/attacked pair — accumulate instead of overwriting each
        other.
        """
        if self._obs.enabled and state.route_searches:
            self._obs.registry.counter("fastpath.payments").inc(
                state.route_searches
            )
        state.route_searches = 0

    # -- helpers --------------------------------------------------------------

    def _columnise(
        self, trace: Union[TraceArrays, Sequence[Transaction]], view: GraphView
    ) -> TraceArrays:
        if not isinstance(trace, TraceArrays):
            return TraceArrays.from_transactions(list(trace), view.nodes)
        if trace.nodes == view.nodes:
            return trace
        # Node orders diverge (e.g. a trace generated against another
        # graph instance): re-columnise through the row form.
        return TraceArrays.from_transactions(
            trace.to_transactions(), view.nodes
        )

    def _payment_rng(self, index: int):
        if self.route_rng != "payment":
            return self.router._rng
        return PaymentRouteRng(self._route_base, index)


class _ArrayState:
    """Frozen-view array state: balances, slots, accumulators.

    One instance backs one ``run_trace`` call in ``"instant"`` mode, or
    the whole engine lifetime in event mode (frozen at the first
    ``run()`` call). Routing and the balance array are shared by both
    paths; HTLC slot counters and the escrow discipline live in
    :class:`_ArrayHtlcRouter` on top of this state.
    """

    def __init__(
        self, engine: BatchedSimulationEngine, view: GraphView
    ) -> None:
        self.engine = engine
        self.view = view
        self.n = view.num_nodes
        self.m = view.num_entries
        self.small = self.n < SMALL_GRAPH_NODES
        # Mutable balance state, updated with the same float ops (and in
        # the same order) as the event engine's Channel.send calls.
        self.balances = view.balances.copy()
        self.entry_rows = view.entry_rows()
        self.rev_entry = self._reverse_entries(view)
        # Python adjacency rows for the per-payment searches: successors
        # (both branches) and predecessors sorted by index (the CSR
        # branch's search, the small branch's receiver rows).
        self.full_adj = view.adjacency_lists()
        self.full_radj = view.reverse_adjacency_lists()
        #: Receiver -> hop distances to it over the frozen view (small
        #: branch): the guide of :func:`guided_bfs_structure`.
        self.hops_to: Dict[int, List[int]] = {}
        # Event-mode lookups: node name -> index, directed (src, dst)
        # index pair -> CSR entry.
        self.node_index: Dict[Hashable, int] = {
            node: i for i, node in enumerate(view.nodes)
        }
        rows = self.entry_rows
        indices = view.indices
        self.pair_entry: Dict[Tuple[int, int], int] = {
            (int(rows[e]), int(indices[e])): e for e in range(self.m)
        }
        # Name-keyed twin of pair_entry for the HTLC lock hot path: one
        # dict probe per hop instead of two node lookups plus a pair probe
        # (jamming attacks hammer lock() tens of thousands of times).
        nodes = view.nodes
        self.name_pair_entry: Dict[Tuple[Hashable, Hashable], int] = {
            (nodes[i], nodes[j]): e
            for (i, j), e in self.pair_entry.items()
        }
        # Per-direction in-flight HTLC slot accounting, mirroring
        # Channel._htlc_slots / max_accepted_htlcs entry for entry. Plain
        # lists, not arrays: every access is element-wise on the lock hot
        # path, where unboxed ints beat numpy scalars.
        self.slots_used: List[int] = [0] * self.m
        no_cap = 2**63 - 1
        slot_cap: List[int] = []
        for entry in range(self.m):
            channel_id = view.pair_channels[int(view.edge_ids[entry])][0]
            cap = engine.graph.channel(channel_id).max_accepted_htlcs
            slot_cap.append(no_cap if cap is None else cap)
        self.slot_cap = slot_cap
        # Per-node metric accumulators; *_touched tracks which nodes the
        # event engine would have created dict entries for (it records
        # zero-fee entries too).
        self.revenue = np.zeros(self.n, dtype=np.float64)
        self.revenue_touched = np.zeros(self.n, dtype=bool)
        self.fees_paid = np.zeros(self.n, dtype=np.float64)
        self.fees_touched = np.zeros(self.n, dtype=bool)
        self.upfront_revenue = np.zeros(self.n, dtype=np.float64)
        self.upfront_revenue_touched = np.zeros(self.n, dtype=bool)
        self.upfront_paid = np.zeros(self.n, dtype=np.float64)
        self.upfront_paid_touched = np.zeros(self.n, dtype=bool)
        self.sent = np.zeros(self.n, dtype=np.int64)
        self.received = np.zeros(self.n, dtype=np.int64)
        self.edge_traffic = np.zeros(self.m, dtype=np.int64)
        #: Route searches since the engine last published them.
        self.route_searches = 0

    @staticmethod
    def _reverse_entries(view: GraphView) -> np.ndarray:
        """Entry index of every entry's opposite direction.

        An unreduced directed view always carries both orientations of a
        pair, so the lookup is total.
        """
        n = view.num_nodes
        keys = view.entry_rows() * n + view.indices
        rev_keys = view.indices * n + view.entry_rows()
        return np.searchsorted(keys, rev_keys).astype(np.int64)

    # -- payment processing ---------------------------------------------------

    def execute(self, trace: TraceArrays) -> None:
        metrics = self.engine.metrics
        senders = trace.senders
        receivers = trace.receivers
        amounts = trace.amounts
        indices = trace.indices
        for pos in range(len(trace)):
            metrics.attempted += 1
            s = int(senders[pos])
            r = int(receivers[pos])
            if s == SELF_PAIR or s == r:
                # Event order: the sender==receiver check precedes the
                # endpoint check, and classifies as "other".
                metrics.failed += 1
                metrics.failure_reasons["other"] += 1
                continue
            if s == UNKNOWN_ENDPOINT or r == UNKNOWN_ENDPOINT:
                metrics.failed += 1
                metrics.failure_reasons["unknown-endpoint"] += 1
                continue
            self._process(s, r, float(amounts[pos]), int(indices[pos]))

    def _process(self, s: int, r: int, amount: float, index: int) -> None:
        engine = self.engine
        metrics = engine.metrics
        path = self.route(s, r, amount, engine._payment_rng(index))
        if path is None:
            metrics.failed += 1
            metrics.failure_reasons["no-capacity-path"] += 1
            return
        hops = len(path) - 1
        hop_amounts = engine.router._hop_amounts(hops, amount)
        entries = [
            self.pair_entry[(path[i], path[i + 1])] for i in range(hops)
        ]
        for entry, hop_amount in zip(entries, hop_amounts):
            if self.balances[entry] < hop_amount:
                # The aggregate route was feasible at `amount` but a hop
                # cannot carry amount+fees — the event engine's
                # "no single channel" execute failure.
                metrics.failed += 1
                metrics.failure_reasons["split-balance"] += 1
                return
        self._apply(s, r, amount, path, entries, hop_amounts)

    def route(
        self, s: int, r: int, amount: float, rng
    ) -> Optional[List[int]]:
        """A shortest ``s -> r`` path over the entries that can carry
        ``amount`` now, as node indices (``None`` when there is none).

        The flags ``balances >= amount`` keep exactly the entries the
        event engine's ``Router`` finds in its reduced view. Small graphs
        run :func:`guided_bfs_structure`, the ``Router``'s python BFS
        restricted to the sender-receiver shortest-path DAG by the hop
        distances to ``r`` over the frozen view (built on first use per
        receiver, kept in :attr:`hops_to`), then the ``Router``'s walk:
        same path, same draws, at about a quarter of the whole-graph
        search's cost on BA-100. Larger ones run
        :func:`bidirectional_route`, which returns the path the
        ``Router``'s numpy search and walk would, with the same RNG
        draws; there the per-receiver rows would cost what the guided
        search saves. Both trace mode and event mode route here; the
        caller applies the outcome.
        """
        self.route_searches += 1
        # One byte per entry: a python list of bools costs ~10x as much
        # to build, and most entries are never read.
        kept = (self.balances >= amount).tobytes()
        selection = self.engine.router.path_selection
        if self.small:
            hops = self.hops_to.get(r)
            if hops is None:
                hops = self.hops_to[r] = hops_to_target(self.full_radj, r)
            dist, sigma, preds = guided_bfs_structure(
                self.full_adj, self.n, s, r, kept, hops
            )
            return walk_small(dist, sigma, preds, s, r, selection, rng)
        return bidirectional_route(
            self.full_adj, self.full_radj, kept, s, r, selection, rng
        )

    def apply_balances(
        self, entries: List[int], hop_amounts: List[float]
    ) -> None:
        """Move every hop amount across its entry (instant settlement).

        Same float operations, same order as :meth:`_apply`, but metric
        booking is left to the caller (event mode books dicts directly).
        """
        balances = self.balances
        for entry, hop_amount in zip(entries, hop_amounts):
            balances[entry] -= hop_amount
            balances[int(self.rev_entry[entry])] += hop_amount

    def _apply(
        self,
        s: int,
        r: int,
        amount: float,
        path: List[int],
        entries: List[int],
        hop_amounts: List[float],
    ) -> None:
        engine = self.engine
        metrics = engine.metrics
        balances = self.balances
        for entry, hop_amount in zip(entries, hop_amounts):
            balances[entry] -= hop_amount
            balances[int(self.rev_entry[entry])] += hop_amount
            self.edge_traffic[entry] += 1
        metrics.succeeded += 1
        metrics.volume_delivered += amount
        self.sent[s] += 1
        self.received[r] += 1
        self.fees_paid[s] += hop_amounts[0] - amount
        self.fees_touched[s] = True
        fee_fn = engine.router.fee if not engine.router.fee_forwarding else None
        for i in range(1, len(path) - 1):
            node = path[i]
            fee = hop_amounts[i - 1] - hop_amounts[i]
            if fee_fn is not None:
                fee += fee_fn(amount)
            self.revenue[node] += fee
            self.revenue_touched[node] = True
        policy = engine._array_router.policy
        if policy.has_upfront:
            # Instant mode has no lock phase, so the per-attempt side is
            # charged on the payments that actually execute — mirroring
            # the event engine's instant handler hop for hop.
            total = 0.0
            for i in range(len(path) - 1):
                node = path[i + 1]
                charge = policy.upfront(hop_amounts[i])
                self.upfront_revenue[node] += charge
                self.upfront_revenue_touched[node] = True
                total += charge
            self.upfront_paid[s] += total
            self.upfront_paid_touched[s] = True

    # -- finalisation ---------------------------------------------------------

    def finalize(self) -> None:
        """Fold the array accumulators into the metrics dicts and write
        the final balances back to the channels."""
        metrics = self.engine.metrics
        nodes = self.view.nodes
        for i in np.nonzero(self.revenue_touched)[0]:
            metrics.revenue[nodes[i]] += float(self.revenue[i])
        for i in np.nonzero(self.fees_touched)[0]:
            metrics.fees_paid[nodes[i]] += float(self.fees_paid[i])
        for i in np.nonzero(self.upfront_revenue_touched)[0]:
            metrics.upfront_revenue[nodes[i]] += float(self.upfront_revenue[i])
        for i in np.nonzero(self.upfront_paid_touched)[0]:
            metrics.upfront_fees_paid[nodes[i]] += float(self.upfront_paid[i])
        for i in np.nonzero(self.sent)[0]:
            metrics.sent[nodes[i]] += int(self.sent[i])
        for i in np.nonzero(self.received)[0]:
            metrics.received[nodes[i]] += int(self.received[i])
        for entry in np.nonzero(self.edge_traffic)[0]:
            src = nodes[int(self.entry_rows[entry])]
            dst = nodes[int(self.view.indices[entry])]
            metrics.edge_traffic[(src, dst)] += int(self.edge_traffic[entry])
        self.write_back()

    def write_back(self) -> None:
        """Push the array balances into the channel objects.

        The arrays applied the exact float operations the event engine's
        ``Channel.send`` calls would have, in the same order, so the
        written state is bit-identical to an event-backend run. Pending
        HTLC escrow stays excluded from both sides (exactly like the
        event engine's ``withdraw``-first discipline), so the channel
        capacity is temporarily reduced by in-flight amounts.
        """
        view = self.view
        graph = self.engine.graph
        rows = self.entry_rows
        for entry in range(self.m):
            u = int(rows[entry])
            v = int(view.indices[entry])
            if u >= v:
                continue
            rev = int(self.rev_entry[entry])
            channel_id = view.pair_channels[int(view.edge_ids[entry])][0]
            channel = graph.channel(channel_id)
            balance_u = float(self.balances[entry])
            balance_v = float(self.balances[rev])
            if channel.u == view.nodes[u]:
                channel.set_balances(balance_u, balance_v)
            else:
                channel.set_balances(balance_v, balance_u)


class _ArrayHtlcPayment:
    """One in-flight multi-hop payment over array state.

    The array twin of :class:`~repro.network.htlc.HtlcPayment`, exposing
    the same read surface (``state`` / ``failure_reason`` /
    ``fees_per_node`` / ``upfront_fees_per_node`` / ``total_locked`` /
    endpoints) so attack strategies and the
    :class:`~repro.attacks.context.AttackContext` handle payments from
    either backend identically. Hops are CSR entries plus amounts rather
    than :class:`~repro.network.htlc.Htlc` objects.
    """

    __slots__ = (
        "payment_id", "path", "amount", "state", "failure_reason",
        "fees_per_node", "upfront_fees_per_node", "_entries", "_amounts",
    )

    def __init__(
        self, payment_id: int, path: Tuple[Hashable, ...], amount: float
    ) -> None:
        self.payment_id = payment_id
        self.path = path
        self.amount = amount
        self.state = HtlcState.PENDING
        self.failure_reason = ""
        self.fees_per_node: Dict[Hashable, float] = {}
        self.upfront_fees_per_node: Dict[Hashable, float] = {}
        self._entries: List[int] = []
        self._amounts: List[float] = []

    @property
    def sender(self) -> Hashable:
        return self.path[0]

    @property
    def receiver(self) -> Hashable:
        return self.path[-1]

    @property
    def total_locked(self) -> float:
        # Kept after settle (like HtlcPayment.hops), cleared on unwind.
        return sum(self._amounts)

    @property
    def upfront_total(self) -> float:
        """All upfront fees the sender owes for this attempt."""
        return sum(self.upfront_fees_per_node.values())


class _ArrayHtlcRouter:
    """Lock / settle-or-fail over :class:`_ArrayState` balances.

    The array twin of :class:`~repro.network.htlc.HtlcRouter`: same
    escrow discipline (the hop amount leaves the upstream balance at
    lock; settlement decides which side it lands on), same per-direction
    slot accounting, same failure reasons (``"no-balance"`` /
    ``"no-slots"``) with the same precedence, and the same fee and
    upfront-fee arithmetic — so a lock/settle/fail sequence produces
    bit-identical balances and fees on either backend. Constructed with
    the engine (fees price routes immediately) but bound to array state
    lazily at the first ``run()`` call.
    """

    def __init__(self, fee: Optional[FeeFunction]) -> None:
        self.fee = fee if fee is not None else ConstantFee(0.0)
        self.policy = FeePolicy.of(self.fee)
        self._in_flight: Dict[int, _ArrayHtlcPayment] = {}
        # Running locked-capital sum, updated with exactly the same float
        # operations (and in the same event order) as the event router's
        # — see HtlcRouter._drop_in_flight — so the O(1) locked_capital()
        # stays bit-identical across backends.
        self._locked_totals: Dict[int, float] = {}
        self._locked_total = 0.0
        self._hop_amounts_cache: Dict[Tuple[int, float], Tuple[float, ...]] = {}
        self._ids = itertools.count()
        self._state: Optional[_ArrayState] = None

    def bind(self, state: _ArrayState) -> None:
        self._state = state

    def hop_amounts(self, hops: int, amount: float) -> List[float]:
        """Per-hop amounts (sender side first) for delivering ``amount``.

        Identical arithmetic to :meth:`HtlcRouter.hop_amounts
        <repro.network.htlc.HtlcRouter.hop_amounts>`, so attack
        strategies price capital commitments the same on both backends.
        """
        return list(self._hop_amounts(hops, amount))

    def _hop_amounts(self, hops: int, amount: float) -> Tuple[float, ...]:
        # Memoised like HtlcRouter._hop_amounts (same bound, same
        # arithmetic): jamming re-prices one (hops, amount) shape per
        # attempt.
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

    def lock(
        self, path: Sequence[Hashable], amount: float
    ) -> _ArrayHtlcPayment:
        """Phase 1: reserve funds along ``path`` for ``amount``."""
        if len(path) < 2:
            raise RoutingError("path needs at least one hop")
        if amount <= 0:
            raise HtlcError(f"amount must be > 0, got {amount}")
        state = self._state
        if state is None:
            raise HtlcError(
                "the batched engine's HTLC router binds to array state at "
                "the first run() call; lock() is only available inside a run"
            )
        hops = len(path) - 1
        hop_amounts = self._hop_amounts(hops, amount)
        payment = _ArrayHtlcPayment(next(self._ids), tuple(path), amount)
        # Hot path under jamming: hoist every per-hop attribute chase.
        pair_entry_get = state.name_pair_entry.get
        balances = state.balances
        slots_used = state.slots_used
        slot_cap = state.slot_cap
        has_upfront = self.policy.has_upfront
        entries = payment._entries
        amounts = payment._amounts
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
            # balance into escrow and occupies one direction slot, just
            # like Channel.withdraw + open_htlc.
            balances[entry] = before - hop_amount
            slots_used[entry] += 1
            if has_upfront:
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

    def settle(self, payment: _ArrayHtlcPayment) -> None:
        """Phase 2a: funds finalise downstream; fee differences stick."""
        self._require_pending(payment)
        state = self._state
        balances = state.balances
        for entry, hop_amount in zip(payment._entries, payment._amounts):
            balances[int(state.rev_entry[entry])] += hop_amount
            state.slots_used[entry] -= 1
        amounts = payment._amounts
        for node, inbound, outbound in zip(
            payment.path[1:-1], amounts, amounts[1:]
        ):
            payment.fees_per_node[node] = (
                payment.fees_per_node.get(node, 0.0) + inbound - outbound
            )
        payment.state = HtlcState.SETTLED
        self._drop_in_flight(payment)

    def fail(self, payment: _ArrayHtlcPayment) -> None:
        """Phase 2b: unwind every reservation; balances fully restored."""
        self._require_pending(payment)
        self._unwind(payment)
        payment.state = HtlcState.FAILED
        self._drop_in_flight(payment)

    def _unwind(self, payment: _ArrayHtlcPayment) -> None:
        state = self._state
        balances = state.balances
        for entry, hop_amount in zip(
            reversed(payment._entries), reversed(payment._amounts)
        ):
            balances[entry] += hop_amount
            state.slots_used[entry] -= 1
        payment._entries.clear()
        payment._amounts.clear()

    def _require_pending(self, payment: _ArrayHtlcPayment) -> None:
        if payment.state is not HtlcState.PENDING:
            raise HtlcError(
                f"payment {payment.payment_id} is {payment.state.value}, "
                "not pending"
            )

    def _drop_in_flight(self, payment: _ArrayHtlcPayment) -> None:
        if self._in_flight.pop(payment.payment_id, None) is None:
            return
        self._locked_total -= self._locked_totals.pop(payment.payment_id, 0.0)
        if not self._in_flight:
            # Re-anchor: with nothing in flight the total is exactly zero;
            # shed any rounding the incremental +/- accumulated.
            self._locked_total = 0.0

    @property
    def in_flight(self) -> Tuple[_ArrayHtlcPayment, ...]:
        return tuple(self._in_flight.values())

    def locked_capital(self) -> float:
        """Total coins currently reserved by pending payments."""
        return self._locked_total
