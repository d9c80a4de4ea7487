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
  view stays within a bound: column ``r`` of the view's cached
  all-pairs distances (:func:`~repro.network.views.all_pairs_paths`,
  ~1 ms per view at n=100, where one python BFS per receiver cost ~34
  µs). Masking only removes entries, so that distance never
  overestimates the masked one, and every node on a masked shortest
  path is admitted at its true level through all its predecessors, in
  BFS pop order: path counts, predecessor order and walk draws are
  those of the whole-graph search.
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
  trace order, so a seed fixes every route. The walks draw one
  ``rng.random()`` per multi-predecessor hop and search a python-float
  CDF of the counts (:func:`~repro.network.routing.tie_break` on large
  graphs, the same draw as ``walk_csr``'s ``Generator.choice`` without
  its ~13 µs per call);
* every payment, replayed by ``run_trace`` or queued for ``run``, is
  routed here and then reserved on the engine's
  :class:`~repro.network.htlc.HtlcLedger` over this module's array
  state: one balance and one slot count per CSR entry. An instant
  payment releases at once and books straight into
  :class:`SimulationMetrics`; the balances are written back to the
  channels at the end of every call.

The engine runs over simple graphs (no parallel channels) in both
payment modes. It is a
:class:`~repro.simulation.engine.SimulationEngine` subclass: the event
queue, the payment handling, the booking and the route RNG are the base
class's, and this module supplies the route search
(:meth:`BatchedSimulationEngine._find_path`) and the array balances and
slots the ledger reserves hops on, so instant payments, HTLC holds and
attack-strategy locks contend for one set of balances and slots. The
array state of ``run`` freezes at its first call, after attack
strategies opened their channels; later calls re-read the channel
balances first.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..network.channel import Channel
from ..network.graph import ChannelGraph
from ..network.routing import (
    bidirectional_route,
    guided_bfs_structure,
    hop_guide,
    walk_small,
)
from ..network.views import SMALL_GRAPH_NODES, GraphView
from ..transactions.workload import Transaction
from .engine import SimulationEngine
from .metrics import SimulationMetrics

__all__ = ["BatchedSimulationEngine"]


class BatchedSimulationEngine(SimulationEngine):
    """Drives a payment trace over frozen view arrays.

    A :class:`SimulationEngine` whose routes come from the array state:
    the event loop, scheduling, payment handling, booking and the route
    RNG are inherited. Build it directly or from a
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
        saved = self._state
        self._state = state
        self._htlc_router.bind(state)
        pay = self._pay
        first = self._payment_seq
        try:
            for index, tx in enumerate(trace, first):
                pay(tx.sender, tx.receiver, tx.amount, index)
        finally:
            # Rebind what run() froze, where held HTLCs live; the fresh
            # state is freed with the call.
            self._state = saved
            self._htlc_router.bind(saved)
        self._payment_seq = first + len(times)
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
        the end of every call the balances are written back to the
        channels.
        """
        state = self._state
        if state is None:
            state = self._state = self._freeze()
            self._htlc_router.bind(state)
        else:
            state.read_balances()
        metrics = super().run(until)
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
        return _ArrayState(self.graph, view, self.path_selection)

    def _find_path(
        self, sender: Hashable, receiver: Hashable, amount: float, index: int
    ) -> Union[List[Hashable], str]:
        # The RNG resolves before the endpoint checks, so an index is
        # consumed even for payments that fail validation.
        rng = self._route_rng(index)
        return self._state.find(sender, receiver, amount, rng)

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
    """Frozen-view array state: balances, slots and the route search.

    One instance backs one ``run_trace`` call in ``"instant"`` mode, or
    the whole engine lifetime for queued events (frozen at the first
    ``run()`` call). The engine's :class:`~repro.network.htlc.HtlcLedger`
    reserves and releases hops on these balances and slot counters, for
    instant payments and held HTLCs alike.
    """

    def __init__(
        self, graph: ChannelGraph, view: GraphView, path_selection: str
    ) -> None:
        self.graph = graph
        self.view = view
        self.path_selection = path_selection
        self.n = view.num_nodes
        self.m = view.num_entries
        self.small = self.n < SMALL_GRAPH_NODES
        # Mutable balance state, one float per directed entry.
        self.balances = view.balances.copy()
        self.entry_rows = view.entry_rows()
        # A list, not an array: the ledger reads it element-wise per hop.
        self.rev_entry: List[int] = self._reverse_entries(view).tolist()
        # Python adjacency rows for the per-payment searches: successors
        # (both branches) and predecessors sorted by index (the
        # bidirectional search only).
        self.full_adj = view.adjacency_lists()
        self.full_radj = None if self.small else view.reverse_adjacency_lists()
        #: Receiver -> hop distances to it over the frozen view (small
        #: branch): the guide of :func:`guided_bfs_structure`.
        self.hops_to: Dict[int, List[int]] = {}
        # Lookups: node name -> index, directed (src, dst) name pair ->
        # CSR entry (one dict probe per hop in the ledger's reserve).
        nodes = view.nodes
        self.node_index: Dict[Hashable, int] = {
            node: i for i, node in enumerate(nodes)
        }
        self.name_pair_entry: Dict[Tuple[Hashable, Hashable], int] = {
            (nodes[i], nodes[j]): e
            for e, (i, j) in enumerate(
                zip(self.entry_rows.tolist(), view.indices.tolist())
            )
        }
        # Per-direction in-flight HTLC slot accounting, capped by each
        # channel's max_accepted_htlcs. Plain lists, not arrays: every
        # access is element-wise on the reserve hot path, where unboxed
        # ints beat numpy scalars.
        self.slots_used: List[int] = [0] * self.m
        no_cap = 2**63 - 1
        slot_cap: List[int] = []
        for entry in range(self.m):
            channel_id = view.pair_channels[int(view.edge_ids[entry])][0]
            cap = graph.channel(channel_id).max_accepted_htlcs
            slot_cap.append(no_cap if cap is None else cap)
        self.slot_cap = slot_cap
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

    # -- route search -----------------------------------------------------------

    def find(
        self, sender: Hashable, receiver: Hashable, amount: float, rng
    ) -> Union[List[Hashable], str]:
        """The route of one payment as node names, or why it fails:
        ``"other"`` (sender is receiver), ``"unknown-endpoint"`` or
        ``"no-capacity-path"``. ``rng`` draws the tie-breaks."""
        if sender == receiver:
            return "other"
        s = self.node_index.get(sender)
        r = self.node_index.get(receiver)
        if s is None or r is None:
            return "unknown-endpoint"
        path = self.route(s, r, amount, rng)
        if path is None:
            return "no-capacity-path"
        nodes = self.view.nodes
        return [nodes[i] for i in path]

    def route(
        self, s: int, r: int, amount: float, rng
    ) -> Optional[List[int]]:
        """A shortest ``s -> r`` path over the entries that can carry
        ``amount`` now, as node indices (``None`` when there is none).

        The flags ``balances >= amount`` keep exactly the entries of the
        reduced view for ``amount``. Small graphs run
        :func:`guided_bfs_structure`, the python BFS restricted to the
        sender-receiver shortest-path DAG by the hop distances to ``r``
        over the frozen view (read on first use per receiver, kept in
        :attr:`hops_to`), then :func:`walk_small`: the whole-graph
        search's path and draws at about a quarter of its cost on
        BA-100; a view whose betweenness already ran (an attack's
        victim choice) has its table built. Larger ones run
        :func:`bidirectional_route`, which returns the path the CSR
        search and :func:`~repro.network.routing.walk_csr` would, with
        the same RNG draws: each tie-break is one ``rng.random()`` and a
        ``bisect_right`` in python floats where ``walk_csr`` calls
        ``Generator.choice``. There the per-receiver rows would cost what
        the guided search saves.
        """
        self.route_searches += 1
        # One byte per entry: a python list of bools costs ~10x as much
        # to build, and most entries are never read.
        kept = (self.balances >= amount).tobytes()
        selection = self.path_selection
        if self.small:
            hops = self.hops_to.get(r)
            if hops is None:
                hops = self.hops_to[r] = hop_guide(self.view, r)
            dist, sigma, preds = guided_bfs_structure(
                self.full_adj, self.n, s, r, kept, hops
            )
            return walk_small(dist, sigma, preds, s, r, selection, rng)
        return bidirectional_route(
            self.full_adj, self.full_radj, kept, s, r, selection, rng
        )

    # -- channels ---------------------------------------------------------------

    def _channel_entries(self) -> Iterator[Tuple[Channel, int, int]]:
        """``(channel, entry u -> v, entry v -> u)`` for every channel
        ``u``-``v`` of the view."""
        view = self.view
        graph = self.graph
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
