"""The payment channel network graph.

:class:`ChannelGraph` is the central substrate data structure: a multigraph
of :class:`~repro.network.channel.Channel` objects. It supports the views
the rest of the library needs:

* an *undirected* unit-weight view for hop distances ``d(u, v)``;
* a *directed* view with per-direction balances for capacity-aware routing
  and for the reduced subgraph ``G'`` of Section II-B;
* in-degree counts used by the modified-Zipf ranking of Section II-B (each
  bidirectional channel contributes one in-edge to each endpoint).

Views are immutable CSR snapshots (:class:`~repro.network.views.GraphView`)
produced by :meth:`ChannelGraph.view` and cached keyed on the graph's
mutation version — every structural change *and* every balance movement
bumps the version, so algorithms can never observe a stale snapshot. For
a networkx materialisation call ``view(...).to_networkx()``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..determinism import ordered_sum
from ..errors import ChannelNotFound, DuplicateChannel, InvalidParameter, NodeNotFound
from .channel import DEFAULT_MAX_ACCEPTED_HTLCS, Channel, MutationCounter
from .views import GraphView, build_view

__all__ = ["ChannelGraph"]

#: Cached views kept per graph before stale entries are pruned.
_VIEW_CACHE_LIMIT = 32


class ChannelGraph:
    """A multigraph of payment channels.

    Nodes are arbitrary hashables; channels are :class:`Channel` objects.
    Parallel channels between the same endpoints are allowed (the paper's
    action set Ω may contain the same endpoint with different funds).
    """

    def __init__(self) -> None:
        self._channels: Dict[str, Channel] = {}
        self._adjacency: Dict[Hashable, Set[str]] = {}
        # Bumped on every mutation — structural (add/remove) and balance
        # (send/deposit/withdraw, through the channels sharing it) — so
        # cached views are keyed on the complete observable state.
        self._counter = MutationCounter()
        self._views: Dict[Tuple[bool, float], Tuple[int, GraphView]] = {}

    @property
    def version(self) -> int:
        """Monotone mutation counter (structure and balances)."""
        return self._counter.value

    # -- construction -------------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        """Register ``node`` (no-op when it already exists)."""
        self._adjacency.setdefault(node, set())
        self._counter.value += 1

    def add_channel(
        self,
        u: Hashable,
        v: Hashable,
        balance_u: float,
        balance_v: float = 0.0,
        channel_id: Optional[str] = None,
        fee_base: float = 0.0,
        fee_rate: float = 0.0,
        upfront_base: float = 0.0,
        upfront_rate: float = 0.0,
        max_accepted_htlcs: Optional[int] = DEFAULT_MAX_ACCEPTED_HTLCS,
    ) -> Channel:
        """Open a channel between ``u`` and ``v`` and return it.

        Endpoints are created implicitly. ``balance_u``/``balance_v`` are the
        coins each side locks at creation.
        """
        channel = Channel(
            u, v, balance_u, balance_v, channel_id=channel_id,
            fee_base=fee_base, fee_rate=fee_rate,
            upfront_base=upfront_base, upfront_rate=upfront_rate,
            max_accepted_htlcs=max_accepted_htlcs,
        )
        if channel.channel_id in self._channels:
            if channel_id is not None:
                raise DuplicateChannel(
                    f"channel id {channel.channel_id!r} already present"
                )
            # Auto-generated id collided with an explicit id (e.g. a graph
            # loaded from a snapshot written by another process, whose ids
            # restarted the per-process counter). Draw until free.
            while channel.channel_id in self._channels:
                channel = Channel(
                    u, v, balance_u, balance_v,
                    fee_base=fee_base, fee_rate=fee_rate,
                    upfront_base=upfront_base, upfront_rate=upfront_rate,
                    max_accepted_htlcs=max_accepted_htlcs,
                )
        self.add_node(u)
        self.add_node(v)
        self._channels[channel.channel_id] = channel
        self._adjacency[u].add(channel.channel_id)
        self._adjacency[v].add(channel.channel_id)
        channel._counter = self._counter
        self._counter.value += 1
        return channel

    def remove_channel(self, channel_id: str) -> Channel:
        """Close and remove a channel, returning it."""
        try:
            channel = self._channels.pop(channel_id)
        except KeyError:
            raise ChannelNotFound(None, None, channel_id) from None
        self._adjacency[channel.u].discard(channel_id)
        self._adjacency[channel.v].discard(channel_id)
        channel._counter = None
        self._counter.value += 1
        return channel

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and every channel incident to it."""
        if node not in self._adjacency:
            raise NodeNotFound(node)
        for channel_id in list(self._adjacency[node]):
            self.remove_channel(channel_id)
        del self._adjacency[node]
        self._counter.value += 1

    def copy(self) -> "ChannelGraph":
        """Deep copy: balances and per-channel settings are copied."""
        clone = ChannelGraph()
        for node in self._adjacency:
            clone.add_node(node)
        for channel in self._channels.values():
            clone.add_channel(
                channel.u,
                channel.v,
                channel.balance(channel.u),
                channel.balance(channel.v),
                channel_id=channel.channel_id,
                fee_base=channel.fee_base,
                fee_rate=channel.fee_rate,
                upfront_base=channel.upfront_base,
                upfront_rate=channel.upfront_rate,
                max_accepted_htlcs=channel.max_accepted_htlcs,
            )
        return clone

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Hashable, ...]:
        return tuple(self._adjacency)

    @property
    def channels(self) -> Tuple[Channel, ...]:
        return tuple(self._channels.values())

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._adjacency

    def num_channels(self) -> int:
        return len(self._channels)

    def channel(self, channel_id: str) -> Channel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise ChannelNotFound(None, None, channel_id) from None

    def channels_of(self, node: Hashable) -> List[Channel]:
        """All channels incident to ``node``."""
        if node not in self._adjacency:
            raise NodeNotFound(node)
        return [self._channels[cid] for cid in sorted(self._adjacency[node])]

    def channels_between(self, u: Hashable, v: Hashable) -> List[Channel]:
        """All (parallel) channels whose endpoints are exactly ``{u, v}``."""
        if u not in self._adjacency:
            raise NodeNotFound(u)
        if v not in self._adjacency:
            raise NodeNotFound(v)
        ids = self._adjacency[u] & self._adjacency[v]
        return [self._channels[cid] for cid in sorted(ids)]

    def has_channel(self, u: Hashable, v: Hashable) -> bool:
        if u not in self._adjacency or v not in self._adjacency:
            return False
        return bool(self._adjacency[u] & self._adjacency[v])

    def neighbors(self, node: Hashable) -> List[Hashable]:
        """Distinct counterparties of ``node``."""
        seen: Set[Hashable] = set()
        out: List[Hashable] = []
        for channel in self.channels_of(node):
            other = channel.other(node)
            if other not in seen:
                seen.add(other)
                out.append(other)
        return out

    def degree(self, node: Hashable) -> int:
        """Number of channels incident to ``node`` (parallel channels count)."""
        if node not in self._adjacency:
            raise NodeNotFound(node)
        return len(self._adjacency[node])

    def set_htlc_slot_cap(self, cap: Optional[int]) -> None:
        """Set ``max_accepted_htlcs`` on every existing channel.

        Used by attack scenarios to study slot exhaustion at realistic (or
        deliberately scarce) slot budgets; new channels keep their own cap.

        Raises:
            InvalidParameter: when ``cap`` is below 1 (``None`` = no cap).
        """
        if cap is not None and cap < 1:
            raise InvalidParameter(
                f"HTLC slot cap must be >= 1 or None, got {cap}"
            )
        for channel in self._channels.values():
            channel.max_accepted_htlcs = cap

    def total_capacity(self) -> float:
        return ordered_sum(c.capacity for c in self._channels.values())

    def balance_of(self, node: Hashable) -> float:
        """Total coins ``node`` owns across all of its channels."""
        return ordered_sum(c.balance(node) for c in self.channels_of(node))

    # -- views --------------------------------------------------------------

    def view(self, directed: bool = True, reduced: float = 0.0) -> GraphView:
        """An immutable CSR snapshot of the current graph state.

        Args:
            directed: per-direction balances (True) or the symmetric
                collapsed adjacency (False).
            reduced: drop directed entries whose aggregated balance is
                strictly below this amount — the reduced subgraph ``G'``
                of Section II-B for transactions of size ``reduced``.

        Views are cached keyed on ``(directed, reduced)`` and the graph's
        mutation version; balance movements bump the version, so a cached
        view can never serve stale capacities to the router.
        """
        if reduced < 0:
            raise InvalidParameter("reduced must be >= 0")
        key = (directed, float(reduced))
        hit = self._views.get(key)
        if hit is not None and hit[0] == self.version:
            return hit[1]
        if len(self._views) >= _VIEW_CACHE_LIMIT:
            self._views = {
                k: v for k, v in self._views.items() if v[0] == self.version
            }
            # Same-version entries (distinct `reduced` amounts) can also
            # pile up, e.g. under a liquidity sweep on a static graph —
            # evict oldest-inserted until below the cap.
            while len(self._views) >= _VIEW_CACHE_LIMIT:
                self._views.pop(next(iter(self._views)))
        snapshot = build_view(self, directed, reduced)
        self._views[key] = (self.version, snapshot)
        return snapshot

    # -- convenience constructors -------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        balance: float = 1.0,
    ) -> "ChannelGraph":
        """Build a graph from undirected edge pairs, each side locking
        ``balance`` coins. Convenient for tests and topology studies where
        only the structure matters."""
        graph = cls()
        for u, v in edges:
            graph.add_channel(u, v, balance, balance)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChannelGraph(nodes={len(self._adjacency)}, "
            f"channels={len(self._channels)})"
        )
