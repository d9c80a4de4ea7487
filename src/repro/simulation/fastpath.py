"""The simulator's engine: routing and balances over frozen view arrays.

:class:`BatchedSimulationEngine` avoids a per-payment python cost that
dominates large runs, rebuilding the reduced
:class:`~repro.network.views.GraphView` after every payment (an
O(channels) python loop):

* the full directed view is frozen **once**; balances live in one
  mutable float array indexed by CSR entry, and the reduced subgraph for
  a payment of size ``x`` is the boolean mask ``balances >= x`` — no
  python per-channel loop, ever;
* every payment is routed from current state over the masked entries.
  Below :data:`~repro.network.views.SMALL_GRAPH_NODES` nodes this is
  :func:`~repro.network.routing.guided_bfs_structure` plus
  :func:`~repro.network.routing.walk_small`. The search is
  :func:`~repro.network.routing.small_bfs_structure` cut down to the
  sender-receiver shortest-path DAG: it admits a node at level ``k``
  only if ``k`` plus its hop distance to the receiver in the unmasked
  view (one BFS per receiver, cached) stays within a bound. Masking
  only removes entries, so that distance never overestimates the masked
  one, and every node on a masked shortest path is admitted at its true
  level through all its predecessors, in BFS pop order: path counts,
  predecessor order and walk draws are those of the whole-graph search.
  At most two pruned passes run before the full BFS takes over. On
  ``attack-htlc`` (BA-100) this cuts the ~50 µs whole-graph search per
  payment to ~14 µs. On larger graphs the route is
  :func:`~repro.network.routing.bidirectional_route`, a python search
  from both ends that builds only the sender-receiver shortest-path DAG
  and returns the path a whole-graph
  :func:`~repro.network.views.bfs_shortest_path_tree` plus
  :func:`~repro.network.routing.walk_csr` would. The split at 150 nodes
  stays: the guided search there lost 6% ``work_per_s`` on
  ``simulate-large``, because a BA-200 run needs ~150 receiver rows at
  ~50 µs each, and the bidirectional search at 100 nodes gained only 9%
  on ``attack-htlc``;
* ``path_selection="random"`` draws weight the shortest-path counts in
  trace order, so a seed fixes every route;
* in trace replay, per-node metrics accumulate into arrays
  (scatter-adds) and convert to the dict form of
  :class:`SimulationMetrics` once, at the end; final balances are
  written back to the channels once, at the end.

The engine runs over simple graphs (no parallel channels) in both
payment modes. ``"instant"`` replays a pre-generated trace in order.
It is a :class:`~repro.simulation.engine.SimulationEngine` subclass:
the event queue, the HTLC handlers, upfront-fee booking and the route
RNG are the base class's, and this module supplies the route search
(:meth:`BatchedSimulationEngine._find_path`) and the array balances the
:class:`~repro.network.htlc.HtlcLedger` reserves hops on, so HTLC holds
and attack-strategy event injection contend for one set of balances and
slots. The array state freezes at the first ``run()`` call, after
attack strategies opened their channels.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
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
    inherited. Build it directly or from a
    :class:`~repro.scenarios.specs.SimulationSpec` through
    :func:`~repro.scenarios.factory.build_simulation_engine`.
    """

    _state: Optional["_ArrayState"] = None

    def run_trace(
        self, trace: Union[TraceArrays, Sequence[Transaction]]
    ) -> SimulationMetrics:
        """Process every payment of ``trace`` and return the metrics.

        Accepts either :class:`TraceArrays` or a transaction sequence
        (columnised internally against the graph's node order). In
        ``"instant"`` mode, repeated calls accumulate into the same
        metrics, like scheduling more events and calling :meth:`run`;
        each call re-freezes the graph, so mutations between calls are
        picked up. In ``"htlc"`` mode the trace goes through the event
        queue, resolve events past the last payment included.
        """
        if self.payment_mode == "htlc":
            return super().run_trace(trace)
        view = self.graph.view(directed=True)
        self._check_graph(view)
        trace = self._columnise(trace, view)
        if len(trace) > 1 and bool((np.diff(trace.times) < 0).any()):
            # The event queue would reorder these; the replay loop will
            # not — refuse rather than silently diverge.
            raise SimulationError(
                "replayed traces must be time-ordered (the event queue "
                "sorts payments; trace replay runs them in order)"
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
                channel = self.graph.channel(channels[0])
                raise SimulationError(
                    "the simulator requires a simple channel graph; "
                    f"{channel.u!r} and {channel.v!r} share the parallel "
                    f"channels {list(channels)}"
                )

    def _find_path(self, event: PaymentEvent) -> Union[List[Hashable], str]:
        # The RNG resolves before the endpoint checks, so an index is
        # consumed even for payments that fail validation.
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

        Metrics are booked straight into the dicts, not the trace-mode
        array accumulators; both add the same floats in the same order.
        """
        self.metrics.attempted += 1
        path = self._find_path(event)
        if isinstance(path, str):
            self._fail_payment(path)
            return
        state = self._state
        hop_amounts = self._hop_amounts(len(path) - 1, float(event.amount))
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
    the whole engine lifetime for queued events (frozen at the first
    ``run()`` call). Routing and the balance array are shared by both
    paths; the engine's :class:`~repro.network.htlc.HtlcLedger` locks
    hops on these balances and slot counters.
    """

    def __init__(
        self, engine: BatchedSimulationEngine, view: GraphView
    ) -> None:
        self.engine = engine
        self.view = view
        self.n = view.num_nodes
        self.m = view.num_entries
        self.small = self.n < SMALL_GRAPH_NODES
        # Mutable balance state, one float per directed entry.
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
        # Queued-event lookups: node name -> index, directed (src, dst)
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
        # Per-direction in-flight HTLC slot accounting, capped by each
        # channel's max_accepted_htlcs. Plain lists, not arrays: every
        # access is element-wise on the lock hot path, where unboxed ints
        # beat numpy scalars.
        self.slots_used: List[int] = [0] * self.m
        no_cap = 2**63 - 1
        slot_cap: List[int] = []
        for entry in range(self.m):
            channel_id = view.pair_channels[int(view.edge_ids[entry])][0]
            cap = engine.graph.channel(channel_id).max_accepted_htlcs
            slot_cap.append(no_cap if cap is None else cap)
        self.slot_cap = slot_cap
        # Per-node metric accumulators; *_touched tracks which nodes get a
        # dict entry (zero-fee entries are recorded too).
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
                # As in _find_path: the sender==receiver check precedes
                # the endpoint check, and classifies as "other".
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
        hop_amounts = engine._hop_amounts(hops, amount)
        entries = [
            self.pair_entry[(path[i], path[i + 1])] for i in range(hops)
        ]
        for entry, hop_amount in zip(entries, hop_amounts):
            if self.balances[entry] < hop_amount:
                # The route was feasible at `amount` but a hop cannot
                # carry amount+fees.
                metrics.failed += 1
                metrics.failure_reasons["split-balance"] += 1
                return
        self._apply(s, r, amount, path, entries, hop_amounts)

    def route(
        self, s: int, r: int, amount: float, rng
    ) -> Optional[List[int]]:
        """A shortest ``s -> r`` path over the entries that can carry
        ``amount`` now, as node indices (``None`` when there is none).

        The flags ``balances >= amount`` keep exactly the entries of the
        reduced view for ``amount``. Small graphs run
        :func:`guided_bfs_structure`, the python BFS restricted to the
        sender-receiver shortest-path DAG by the hop distances to ``r``
        over the frozen view (built on first use per receiver, kept in
        :attr:`hops_to`), then :func:`walk_small`: the whole-graph
        search's path and draws at about a quarter of its cost on
        BA-100. Larger ones run :func:`bidirectional_route`, which
        returns the path the CSR search and
        :func:`~repro.network.routing.walk_csr` would, with
        the same RNG draws; there the per-receiver rows would cost what
        the guided search saves. Trace replay and queued events both
        route here; the caller applies the outcome.
        """
        self.route_searches += 1
        # One byte per entry: a python list of bools costs ~10x as much
        # to build, and most entries are never read.
        kept = (self.balances >= amount).tobytes()
        selection = self.engine.path_selection
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
        fee_fn = engine.fee if not engine.fee_forwarding else None
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
            # charged on the payments that actually execute, hop for hop
            # as in SimulationEngine._book_instant.
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

        Pending HTLC escrow stays excluded from both sides, so the
        channel capacity is temporarily reduced by in-flight amounts.
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
