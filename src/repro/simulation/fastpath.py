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
* every instant payment, replayed by ``run_trace`` or queued for
  ``run``, goes through one function, :meth:`_ArrayState.pay`: it
  routes, checks, moves the balances and adds the per-node metrics into
  arrays. The arrays fold into the dict form of
  :class:`SimulationMetrics`, and the balances are written back to the
  channels, once at the end of every call.

The engine runs over simple graphs (no parallel channels) in both
payment modes. It is a
:class:`~repro.simulation.engine.SimulationEngine` subclass: the event
queue, the HTLC handlers, upfront-fee booking and the route RNG are the
base class's, and this module supplies the route search
(:meth:`BatchedSimulationEngine._find_path`), the instant payment and
the array balances the :class:`~repro.network.htlc.HtlcLedger` reserves
hops on, so HTLC holds and attack-strategy event injection contend for
one set of balances and slots. The array state of ``run`` freezes at its
first call, after attack strategies opened their channels; later calls
re-read the channel balances first.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..network.channel import Channel
from ..network.routing import (
    bidirectional_route,
    guided_bfs_structure,
    hops_to_target,
    walk_small,
)
from ..network.views import SMALL_GRAPH_NODES, GraphView
from ..transactions.workload import Transaction
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

    def run_trace(self, trace: Sequence[Transaction]) -> SimulationMetrics:
        """Process every payment of ``trace`` and return the metrics.

        In ``"instant"`` mode the payments run in trace order over a
        fresh freeze of the graph, so graph mutations between calls are
        picked up, and repeated calls accumulate into the same metrics,
        like scheduling more events and calling :meth:`run`. In
        ``"htlc"`` mode the trace goes through the event queue, resolve
        events past the last payment included.
        """
        if self.payment_mode == "htlc":
            self.schedule_transactions(trace)
            return self.run()
        times = [tx.time for tx in trace]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            # The event queue would reorder these; the replay loop will
            # not — refuse rather than silently diverge.
            raise SimulationError(
                "replayed traces must be time-ordered (the event queue "
                "sorts payments; trace replay runs them in order)"
            )
        state = self._freeze()
        state.load()
        pay = state.pay
        first = self._payment_seq
        for index, tx in enumerate(trace, first):
            pay(tx.sender, tx.receiver, tx.amount, index)
        self._payment_seq = first + len(times)
        state.fold()
        state.write_back()
        if times:
            self.metrics.horizon = float(times[-1])
        self._publish_obs(state)
        return self.metrics

    def run(self, until: Optional[float] = None) -> SimulationMetrics:
        """Process queued events in time order over the array state.

        The array state freezes at the first call. Later calls re-read
        the channel balances first, so balances changed on the graph
        between calls are picked up; other graph mutations are not. At
        the end of every call the instant-payment totals fold into the
        metrics and the balances are written back to the channels.
        """
        state = self._state
        if state is None:
            state = self._state = self._freeze()
            self._htlc_router.bind(state)
        else:
            state.read_balances()
        # HTLC settles book straight into the metrics dicts, so only
        # instant mode round-trips them through the arrays.
        instant = self.payment_mode == "instant"
        if instant:
            state.load()
        metrics = super().run(until)
        if instant:
            state.fold()
        state.write_back()
        self._publish_obs(state)
        return metrics

    def _freeze(self) -> "_ArrayState":
        view = self.graph.view(directed=True)
        for channels in view.pair_channels:
            if len(channels) > 1:
                channel = self.graph.channel(channels[0])
                raise SimulationError(
                    "the simulator requires a simple channel graph; "
                    f"{channel.u!r} and {channel.v!r} share the parallel "
                    f"channels {list(channels)}"
                )
        return _ArrayState(self, view)

    def _find_path(self, event: PaymentEvent) -> Union[List[Hashable], str]:
        state = self._state
        path = state.find(
            event.sender, event.receiver, float(event.amount), event.index
        )
        if isinstance(path, str):
            return path
        nodes = state.view.nodes
        return [nodes[i] for i in path]

    def _handle_payment(self, event: PaymentEvent) -> None:
        self._state.pay(event.sender, event.receiver, event.amount, event.index)

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


class _ArrayState:
    """Frozen-view array state: balances, slots, accumulators.

    One instance backs one ``run_trace`` call in ``"instant"`` mode, or
    the whole engine lifetime for queued events (frozen at the first
    ``run()`` call). Instant payments run through :meth:`pay` on both
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
        # Lookups: node name -> index, directed (src, dst) index pair ->
        # CSR entry.
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

    def find(
        self, sender: Hashable, receiver: Hashable, amount: float, index: int
    ) -> Union[List[int], str]:
        """The route of one payment as node indices, or why it fails:
        ``"other"`` (sender is receiver), ``"unknown-endpoint"`` or
        ``"no-capacity-path"``. Instant payments and HTLC locks both
        start here."""
        # The RNG resolves before the endpoint checks, so an index is
        # consumed even for payments that fail validation.
        rng = self.engine._route_rng(index)
        if sender == receiver:
            return "other"
        s = self.node_index.get(sender)
        r = self.node_index.get(receiver)
        if s is None or r is None:
            return "unknown-endpoint"
        path = self.route(s, r, amount, rng)
        return "no-capacity-path" if path is None else path

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
        the guided search saves.
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

    def pay(
        self, sender: Hashable, receiver: Hashable, amount: float, index: int
    ) -> None:
        """Run one instant payment: route it, check that every hop can
        carry its amount plus downstream fees, move the balances and add
        it to the accumulators. ``index`` keys the payment's route RNG
        under ``route_rng="payment"``."""
        engine = self.engine
        metrics = engine.metrics
        metrics.attempted += 1
        amount = float(amount)
        path = self.find(sender, receiver, amount, index)
        if isinstance(path, str):
            engine._fail_payment(path)
            return
        hops = len(path) - 1
        hop_amounts = engine._hop_amounts(hops, amount)
        entries = [
            self.pair_entry[(path[i], path[i + 1])] for i in range(hops)
        ]
        balances = self.balances
        for entry, hop_amount in zip(entries, hop_amounts):
            if balances[entry] < hop_amount:
                # The route was feasible at `amount` but a hop cannot
                # carry amount+fees.
                engine._fail_payment("split-balance")
                return
        for entry, hop_amount in zip(entries, hop_amounts):
            balances[entry] -= hop_amount
            balances[int(self.rev_entry[entry])] += hop_amount
            self.edge_traffic[entry] += 1
        s = path[0]
        r = path[-1]
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
            # Instant mode has no lock phase, so the per-attempt side of
            # the two-sided policy is charged on the payments that
            # actually execute: one charge per hop, credited to the
            # hop's receiving node.
            total = 0.0
            for i in range(len(path) - 1):
                node = path[i + 1]
                charge = policy.upfront(hop_amounts[i])
                self.upfront_revenue[node] += charge
                self.upfront_revenue_touched[node] = True
                total += charge
            self.upfront_paid[s] += total
            self.upfront_paid_touched[s] = True

    # -- metrics and channels -------------------------------------------------

    def _node_totals(self) -> Tuple[Tuple[str, np.ndarray, Optional[np.ndarray]], ...]:
        """``(metrics attribute, per-node values, touched flags)`` of each
        per-node accumulator; counts have no flags (nonzero is touched)."""
        return (
            ("revenue", self.revenue, self.revenue_touched),
            ("fees_paid", self.fees_paid, self.fees_touched),
            ("upfront_revenue", self.upfront_revenue, self.upfront_revenue_touched),
            ("upfront_fees_paid", self.upfront_paid, self.upfront_paid_touched),
            ("sent", self.sent, None),
            ("received", self.received, None),
        )

    def load(self) -> None:
        """Start the accumulators from the metrics' current totals.

        A call then continues every running sum where the last call left
        it, so split runs add the same floats in the same order as one
        run, and :meth:`fold` writes the totals back.
        """
        metrics = self.engine.metrics
        node_index = self.node_index
        for name, values, touched in self._node_totals():
            for node, value in getattr(metrics, name).items():
                i = node_index.get(node)
                if i is not None:
                    values[i] = value
                    if touched is not None:
                        touched[i] = True
        for pair, count in metrics.edge_traffic.items():
            entry = self.name_pair_entry.get(pair)
            if entry is not None:
                self.edge_traffic[entry] = count

    def fold(self) -> None:
        """Write the accumulated totals into the metrics dicts; nodes new
        to a dict enter it in node-index order."""
        metrics = self.engine.metrics
        nodes = self.view.nodes
        for name, values, touched in self._node_totals():
            totals = getattr(metrics, name)
            for i in np.nonzero(values if touched is None else touched)[0]:
                totals[nodes[i]] = values[i].item()
        rows = self.entry_rows
        for entry in np.nonzero(self.edge_traffic)[0]:
            src = nodes[int(rows[entry])]
            dst = nodes[int(self.view.indices[entry])]
            metrics.edge_traffic[(src, dst)] = int(self.edge_traffic[entry])

    def _channel_entries(self) -> Iterator[Tuple[Channel, int, int]]:
        """``(channel, entry u -> v, entry v -> u)`` for every channel
        ``u``-``v`` of the view."""
        view = self.view
        graph = self.engine.graph
        rows = self.entry_rows
        for entry in range(self.m):
            u = int(rows[entry])
            if u >= int(view.indices[entry]):
                continue
            rev = int(self.rev_entry[entry])
            channel = graph.channel(
                view.pair_channels[int(view.edge_ids[entry])][0]
            )
            if channel.u == view.nodes[u]:
                yield channel, entry, rev
            else:
                yield channel, rev, entry

    def write_back(self) -> None:
        """Push the array balances into the channel objects.

        Pending HTLC escrow stays excluded from both sides, so the
        channel capacity is temporarily reduced by in-flight amounts.
        """
        balances = self.balances
        for channel, forward, backward in self._channel_entries():
            channel.set_balances(
                float(balances[forward]), float(balances[backward])
            )

    def read_balances(self) -> None:
        """Pull the channel balances into the array: the inverse of
        :meth:`write_back`, so balances changed on the graph between two
        ``run()`` calls are not overwritten."""
        balances = self.balances
        for channel, forward, backward in self._channel_entries():
            balances[forward] = channel.balance(channel.u)
            balances[backward] = channel.balance(channel.v)
