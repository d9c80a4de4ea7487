"""The batched simulation backend: vectorised routing over view arrays.

The event engine pays a per-payment python cost that dominates large
runs: rebuilding the reduced :class:`~repro.network.views.GraphView`
after every successful payment (an O(channels) python loop).
:class:`BatchedSimulationEngine` removes it while producing the same
counts, routes, per-node values and final balances:

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
It is a :class:`~repro.simulation.engine.SimulationEngine` subclass:
the event queue, the HTLC handlers, upfront-fee booking and the route
RNG are the base class's, and this module supplies the route search
(:meth:`BatchedSimulationEngine._find_path`), the array balances and an
array-backed HTLC router on the shared
:class:`~repro.network.htlc.HtlcLedger`. So HTLC holds and
attack-strategy event injection replay the event backend's failure
sets (including ``no-htlc-slots``), per-node values and final
balances. The array state freezes at the first ``run()`` call, after
attack strategies opened their channels. Summed report fields such as
``total_revenue`` add a dict in insertion order, which differs between
the backends, so they may differ in their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import HtlcError, SimulationError
from ..network.fees import FeeFunction
from ..network.htlc import HtlcLedger, HtlcPayment
from ..network.routing import (
    bidirectional_route,
    guided_bfs_structure,
    hops_to_target,
    walk_small,
)
from ..network.views import SMALL_GRAPH_NODES, GraphView
from ..transactions.workload import (
    SELF_PAIR,
    UNKNOWN_ENDPOINT,
    TraceArrays,
    Transaction,
)
from .engine import SimulationEngine
from .events import PaymentEvent
from .metrics import SimulationMetrics

__all__ = ["BatchedSimulationEngine"]


class BatchedSimulationEngine(SimulationEngine):
    """Drives a payment trace over frozen view arrays.

    A :class:`SimulationEngine` whose routes come from the array state:
    the event loop, scheduling, HTLC booking and the route RNG are
    inherited, so the two backends are interchangeable behind
    :class:`~repro.scenarios.specs.SimulationSpec`.
    """

    _state: Optional["_ArrayState"] = None

    def _new_htlc_router(self) -> "_ArrayHtlcRouter":
        # Exists from construction (attack strategies price routes via
        # hop_amounts before any run), but binds to the array state at
        # the first run() call — after strategies opened their channels.
        return _ArrayHtlcRouter(self.router.fee)

    def run_trace(
        self, trace: Union[TraceArrays, Sequence[Transaction]]
    ) -> SimulationMetrics:
        """Process every payment of ``trace`` and return the metrics.

        Accepts either :class:`TraceArrays` or a transaction sequence
        (columnised internally against the graph's node order). In
        ``"instant"`` mode, repeated calls accumulate into the same
        metrics, like scheduling more events on the event engine; each
        call re-freezes the graph, so mutations between calls are picked
        up. In ``"htlc"`` mode the trace goes through the event queue,
        resolve events past the last payment included.
        """
        if self.payment_mode == "htlc":
            return super().run_trace(trace)
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

    def run(self, until: Optional[float] = None) -> SimulationMetrics:
        """Process queued events in time order over the array state.

        The array state is frozen at the first call — graph mutations
        after that (other than balance moves made through this engine)
        are not picked up. Final balances are written back to the
        channels at the end of every call.
        """
        if self._state is None:
            view = self.graph.view(directed=True)
            self._check_graph(view)
            self._state = _ArrayState(self, view)
            self._htlc_router.bind(self._state)
        metrics = super().run(until)
        self._state.write_back()
        self._publish_obs(self._state)
        return metrics

    def _check_graph(self, view: GraphView) -> None:
        for channels in view.pair_channels:
            if len(channels) > 1:
                raise SimulationError(
                    "the batched backend requires a simple channel graph; "
                    f"parallel channels {channels} found (use the event "
                    "backend)"
                )

    def _find_path(self, event: PaymentEvent) -> Union[List[Hashable], str]:
        # The RNG resolves before the endpoint checks, as in the event
        # engine's find_route call, so an index is consumed even for
        # payments that fail validation.
        rng = self._route_rng(event.index)
        if event.sender == event.receiver:
            return "other"
        state = self._state
        s = state.node_index.get(event.sender)
        r = state.node_index.get(event.receiver)
        if s is None or r is None:
            return "unknown-endpoint"
        path = state.route(s, r, float(event.amount), rng)
        if path is None:
            return "no-capacity-path"
        nodes = state.view.nodes
        return [nodes[i] for i in path]

    def _handle_payment(self, event: PaymentEvent) -> None:
        """Apply a queued payment atomically over the array balances.

        Metrics are booked straight into the dicts (not the trace-mode
        array accumulators), matching the event engine's accumulation
        order float for float.
        """
        self.metrics.attempted += 1
        path = self._find_path(event)
        if isinstance(path, str):
            self._fail_payment(path)
            return
        state = self._state
        hop_amounts = self.router._hop_amounts(
            len(path) - 1, float(event.amount)
        )
        entries = [state.name_pair_entry[pair] for pair in zip(path, path[1:])]
        for entry, hop_amount in zip(entries, hop_amounts):
            if state.balances[entry] < hop_amount:
                self._fail_payment("split-balance")
                return
        state.apply_balances(entries, hop_amounts)
        self._book_instant(event, path, hop_amounts)

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
        path = self.route(s, r, amount, engine._route_rng(index))
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
        policy = engine._htlc_router.policy
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


@dataclass
class _ArrayHtlcPayment(HtlcPayment):
    """An :class:`~repro.network.htlc.HtlcPayment` over array state: its
    hops are CSR entries plus amounts rather than
    :class:`~repro.network.htlc.Htlc` objects."""

    entries: List[int] = field(default_factory=list)
    amounts: List[float] = field(default_factory=list)

    @property
    def total_locked(self) -> float:
        # Kept after settle (like HtlcPayment.hops), cleared on unwind.
        return sum(self.amounts)


class _ArrayHtlcRouter(HtlcLedger):
    """Lock / settle-or-fail over :class:`_ArrayState` balances.

    Reserves hops the way :class:`~repro.network.htlc.HtlcRouter` does:
    the hop amount leaves the upstream balance at lock and settlement
    decides which side it lands on, with the same per-direction slot
    accounting and the same failure reasons (``"no-balance"`` /
    ``"no-slots"``) in the same precedence. The ledger is shared, so a
    lock/settle/fail sequence produces bit-identical balances and fees
    on either backend. Constructed with the engine (fees price routes
    immediately) but bound to array state at the first ``run()`` call.
    """

    def __init__(self, fee: Optional[FeeFunction]) -> None:
        super().__init__(fee)
        self._state: Optional[_ArrayState] = None

    def bind(self, state: _ArrayState) -> None:
        self._state = state

    def lock(
        self, path: Sequence[Hashable], amount: float
    ) -> _ArrayHtlcPayment:
        """Phase 1: reserve funds along ``path`` for ``amount``."""
        hop_amounts = self._check(path, amount)
        state = self._state
        if state is None:
            raise HtlcError(
                "the batched engine's HTLC router binds to array state at "
                "the first run() call; lock() is only available inside a run"
            )
        payment = _ArrayHtlcPayment(next(self._ids), tuple(path), amount)
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
                return self._reject(payment, reason)
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
        return self._track(payment)

    def _release(self, payment: _ArrayHtlcPayment) -> List[float]:
        state = self._state
        balances = state.balances
        for entry, hop_amount in zip(payment.entries, payment.amounts):
            balances[int(state.rev_entry[entry])] += hop_amount
            state.slots_used[entry] -= 1
        return payment.amounts

    def _unwind(self, payment: _ArrayHtlcPayment) -> None:
        state = self._state
        balances = state.balances
        for entry, hop_amount in zip(
            reversed(payment.entries), reversed(payment.amounts)
        ):
            balances[entry] += hop_amount
            state.slots_used[entry] -= 1
        payment.entries.clear()
        payment.amounts.clear()
