"""Capacity-aware shortest-path routing over a :class:`ChannelGraph`.

Implements the multi-hop payment flow of Section II-A: a payment of size
``x`` from ``s`` to ``r`` follows a shortest path in the reduced subgraph
(every directed edge on the path must hold balance >= forwarded amount),
intermediaries charge a per-hop fee, and on success every channel on the
path updates its balances atomically (the HTLC all-or-nothing guarantee —
footnote 1 of the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from .channel import Channel
from .fees import ConstantFee, FeeFunction
from .graph import ChannelGraph
from .views import SMALL_GRAPH_NODES, BfsTree, GraphView, bfs_shortest_path_tree

__all__ = [
    "PaymentOutcome",
    "PaymentRouteRng",
    "Route",
    "Router",
    "bidirectional_route",
    "small_bfs_structure",
    "walk_csr",
    "walk_small",
]


class PaymentRouteRng:
    """A lazily-constructed RNG keyed on ``(base seed, payment index)``.

    Payments with a unique shortest path draw nothing, so the (relatively
    expensive) ``default_rng`` seeding only happens for payments that
    actually face a tie-break. Derivation from the pair rather than a
    shared stream makes each payment's draws independent of which other
    payments ran before it — the property that lets sharded and batched
    executions reproduce the event engine exactly.
    """

    __slots__ = ("_key", "_gen")

    def __init__(self, base: int, index: int) -> None:
        self._key = (base, index)
        self._gen: Optional[np.random.Generator] = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.default_rng(self._key)
        return self._gen

    def random(self) -> float:
        return float(self._generator().random())

    def choice(self, candidates, p=None):
        return self._generator().choice(candidates, p=p)


def small_bfs_structure(
    adj: List[List[Tuple[int, int]]],
    n: int,
    source: int,
    target: int,
    kept: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[float], List[List[int]]]:
    """Python BFS bookkeeping ``(dist, sigma, preds)`` for small graphs.

    The search stops once ``target`` pops (its level is complete by
    then), so every node at depth <= ``dist[target]`` is exact. ``kept``
    holds optional per-entry flags: entries whose flag is 0 are skipped,
    which gives the same result, in the same order, as a search over
    adjacency lists with those entries removed.
    """
    dist = [-1] * n
    sigma = [0.0] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    dist[source] = 0
    sigma[source] = 1.0
    masked = kept is not None
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            break
        next_dist = dist[v] + 1
        for w, entry in adj[v]:
            if masked and not kept[entry]:
                continue
            if dist[w] < 0:
                dist[w] = next_dist
                queue.append(w)
            if dist[w] == next_dist:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return dist, sigma, preds


def walk_small(
    dist: List[int],
    sigma: List[float],
    preds: List[List[int]],
    source: int,
    target: int,
    path_selection: str,
    rng,
) -> Optional[List[int]]:
    """Backward predecessor walk over :func:`small_bfs_structure` output.

    Returns the path as node indices (source first), or ``None`` when the
    target is unreachable. ``"random"`` selection draws one uniform per
    multi-predecessor hop and walks the sigma prefix sums — uniform over
    all shortest paths (the Eq. 2 equal-split shares).
    """
    if dist[target] < 0:
        return None
    path = [target]
    current = target
    while current != source:
        options = preds[current]
        if path_selection == "random" and len(options) > 1:
            total = sum(sigma[v] for v in options)
            draw = float(rng.random()) * total
            chosen = options[-1]
            for v in options:
                draw -= sigma[v]
                if draw <= 0.0:
                    chosen = v
                    break
        else:
            chosen = options[0]
        path.append(chosen)
        current = chosen
    return path[::-1]


def walk_csr(
    view: GraphView,
    tree: BfsTree,
    source: int,
    target: int,
    path_selection: str,
    rng,
) -> Optional[List[int]]:
    """Backward predecessor walk over a CSR :class:`BfsTree`.

    ``tree`` is :func:`bfs_shortest_path_tree` from ``source`` over
    ``view``. Predecessor rows are sorted by source index, so ``"first"``
    takes the smallest-index predecessor and ``"random"`` draws one
    ``rng.choice`` weighted by ``sigma`` per multi-predecessor hop.
    """
    if tree.dist[target] < 0:
        return None
    rev_indptr, rev_indices, _ = view.reverse_adjacency()
    path = [target]
    current = target
    while current != source:
        preds = rev_indices[rev_indptr[current]:rev_indptr[current + 1]]
        preds = preds[tree.dist[preds] == tree.dist[current] - 1]
        if path_selection == "random" and preds.size > 1:
            sigma = tree.sigma[preds]
            chosen = int(rng.choice(preds, p=sigma / sigma.sum()))
        else:
            chosen = int(preds[0])
        path.append(chosen)
        current = chosen
    return path[::-1]


def bidirectional_route(
    adj: List[List[Tuple[int, int]]],
    radj: List[List[Tuple[int, int]]],
    kept: Sequence[int],
    source: int,
    target: int,
    path_selection: str,
    rng,
) -> Optional[List[int]]:
    """A shortest ``source -> target`` path over the kept entries.

    Returns the same path, drawing the same random numbers, as
    :func:`bfs_shortest_path_tree` plus :func:`walk_csr` over a view
    holding only the entries whose ``kept`` flag is nonzero; ``None``
    when there is no path. ``adj`` and ``radj`` are per-node
    ``[(successor, entry)]`` and ``[(predecessor, entry)]`` lists, both
    sorted by neighbour index (:meth:`GraphView.adjacency_lists` and
    :meth:`GraphView.reverse_adjacency_lists`).

    Only the s-t shortest-path DAG is built. A level-synchronous BFS
    grows from both ends, expanding the side whose frontier has the
    smaller total degree, until a completed level meets the other side:
    at forward level ``rf`` and backward level ``rb`` this fixes the
    distance ``D = rf + rb``, and the DAG nodes at level ``rf`` are the
    nodes with ``df == rf`` and ``db == rb``. Forward path counts
    ``sigma`` are exact up to ``rf``; past it they flow along the
    successor lists the backward search recorded, labelling only DAG
    nodes with their distance from ``source``. Every shortest path from
    ``source`` to a DAG node stays inside the DAG, so the counts —
    integers, exact in float64 — equal a full BFS's, and so do the walk's
    draws.
    """
    n = len(adj)
    # df: hop distance from the source; after the search, the DAG label.
    df = [-1] * n
    db = [-1] * n
    sigma = [0.0] * n
    df[source] = 0
    sigma[source] = 1.0
    db[target] = 0
    # succ[y]: kept successors u of y with db[u] == db[y] - 1.
    succ: Dict[int, List[int]] = {}
    forward, backward = [source], [target]
    forward_degree, backward_degree = len(adj[source]), len(radj[target])
    rf = rb = 0
    met = False
    while not met:
        fresh: List[int] = []
        degree = 0
        if forward_degree <= backward_degree:
            rf += 1
            for v in forward:
                count = sigma[v]
                for w, entry in adj[v]:
                    if not kept[entry]:
                        continue
                    d = df[w]
                    if d < 0:
                        df[w] = rf
                        sigma[w] = count
                        fresh.append(w)
                        degree += len(adj[w])
                        if db[w] >= 0:
                            met = True
                    elif d == rf:
                        sigma[w] += count
            forward, forward_degree = fresh, degree
        else:
            rb += 1
            for u in backward:
                for y, entry in radj[u]:
                    if not kept[entry]:
                        continue
                    d = db[y]
                    if d < 0:
                        db[y] = rb
                        succ[y] = [u]
                        fresh.append(y)
                        degree += len(radj[y])
                        if df[y] >= 0:
                            met = True
                    elif d == rb:
                        succ[y].append(u)
            backward, backward_degree = fresh, degree
        if not fresh:
            return None
    # Whichever side grew last, the forward frontier holds level rf.
    level = [w for w in forward if db[w] == rb]
    for label in range(rf + 1, rf + rb + 1):
        deeper: List[int] = []
        for y in level:
            count = sigma[y]
            for u in succ[y]:
                if df[u] < 0:
                    df[u] = label
                    deeper.append(u)
                sigma[u] += count
        level = deeper
    # Any kept predecessor one level above a DAG node is on the DAG too,
    # so forward labels of off-DAG nodes never match below.
    path = [target]
    current = target
    while current != source:
        want = df[current] - 1
        preds = [
            p for p, entry in radj[current] if df[p] == want and kept[entry]
        ]
        if path_selection == "random" and len(preds) > 1:
            weights = np.array([sigma[p] for p in preds])
            current = int(rng.choice(
                np.array(preds, dtype=np.int64), p=weights / weights.sum()
            ))
        else:
            current = preds[0]
        path.append(current)
    return path[::-1]


@dataclass(frozen=True)
class Route:
    """A candidate payment path.

    Attributes:
        nodes: node sequence from sender to receiver inclusive.
        amount: payment size delivered to the receiver.
        fee: total routing fee paid by the sender to intermediaries.
    """

    nodes: Tuple[Hashable, ...]
    amount: float
    fee: float

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def intermediaries(self) -> Tuple[Hashable, ...]:
        return self.nodes[1:-1]


@dataclass
class PaymentOutcome:
    """Result of attempting one payment."""

    success: bool
    route: Optional[Route] = None
    failure_reason: str = ""
    fees_per_node: dict = field(default_factory=dict)


class Router:
    """Finds and executes payments on a channel graph.

    Args:
        graph: the network to route over.
        fee: global per-hop fee function ``F`` (defaults to zero fees,
            which matches the pure-topology studies of Section IV).
        fee_forwarding: if True (default), each intermediary must forward
            the downstream amount plus downstream fees, mirroring how
            Lightning onions accumulate fees toward the sender. If False,
            every hop forwards exactly ``amount`` (the paper's simplified
            accounting).
        path_selection: ``"first"`` walks back from the receiver and
            takes the first predecessor at each hop (deterministic, no RNG
            draw); ``"random"`` samples uniformly among *all* shortest
            paths, which realises exactly the equal-split
            ``m_e(s,r)/m(s,r)`` traffic shares of Eq. 2 (used by the
            simulator).
        seed: RNG seed for ``"random"`` selection.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        fee: Optional[FeeFunction] = None,
        fee_forwarding: bool = True,
        path_selection: str = "first",
        seed: Optional[int] = None,
    ) -> None:
        if path_selection not in ("first", "random"):
            raise RoutingError(
                f"path_selection must be 'first' or 'random', got {path_selection!r}"
            )
        self.graph = graph
        self.fee = fee if fee is not None else ConstantFee(0.0)
        self.fee_forwarding = fee_forwarding
        self.path_selection = path_selection
        self._rng = np.random.default_rng(seed)

    # -- route discovery ------------------------------------------------------

    def find_route(
        self,
        sender: Hashable,
        receiver: Hashable,
        amount: float,
        view: Optional[GraphView] = None,
        rng=None,
    ) -> Route:
        """Shortest feasible route for ``amount`` in the reduced subgraph.

        Args:
            sender / receiver / amount: the payment intent.
            view: a pre-built reduced view for ``amount``; defaults to
                ``graph.view(directed=True, reduced=amount)``.
            rng: tie-break RNG override (e.g. a per-payment
                :class:`PaymentRouteRng`); defaults to the router's
                sequential stream.

        Raises:
            RoutingError: when sender/receiver are absent or no directed
                path with sufficient balances exists.
        """
        if sender == receiver:
            raise RoutingError("sender and receiver must differ")
        reduced = (
            view if view is not None
            else self.graph.view(directed=True, reduced=amount)
        )
        if sender not in reduced or receiver not in reduced:
            raise RoutingError(f"unknown endpoint in route {sender!r}->{receiver!r}")
        nodes = self._select_path(reduced, sender, receiver, amount, rng=rng)
        hop_amounts = self._hop_amounts(len(nodes) - 1, amount)
        total_fee = hop_amounts[0] - amount
        return Route(tuple(nodes), amount, total_fee)

    def _select_path(
        self,
        reduced: GraphView,
        sender: Hashable,
        receiver: Hashable,
        amount: float,
        rng=None,
    ) -> List[Hashable]:
        """One shortest path in the reduced view, as node labels.

        ``"first"`` walks the predecessor DAG deterministically (smallest
        node index); ``"random"`` samples uniformly among *all* shortest
        paths by walking backward from the receiver and picking each
        predecessor with probability proportional to its shortest-path
        count — exactly the equal-split ``m_e(s,r)/m(s,r)`` shares of
        Eq. 2 without enumerating the (possibly exponential) path set.
        """
        if rng is None:
            rng = self._rng
        s_idx = reduced.index_of(sender)
        r_idx = reduced.index_of(receiver)
        if reduced.num_nodes < SMALL_GRAPH_NODES:
            # Per-payment python BFS beats numpy call overhead on small
            # graphs (the simulator routes thousands of payments).
            dist, sigma, preds = small_bfs_structure(
                reduced.adjacency_lists(), reduced.num_nodes, s_idx,
                target=r_idx,
            )
            path_indices = walk_small(
                dist, sigma, preds, s_idx, r_idx, self.path_selection, rng
            )
        else:
            tree = bfs_shortest_path_tree(reduced, s_idx, target=r_idx)
            path_indices = walk_csr(
                reduced, tree, s_idx, r_idx, self.path_selection, rng
            )
        if path_indices is None:
            raise RoutingError(
                f"no path with capacity {amount} from {sender!r} to {receiver!r}"
            )
        return [reduced.nodes[i] for i in path_indices]

    def _hop_amounts(self, hops: int, amount: float) -> List[float]:
        """Amount entering each hop, sender-side first.

        With fee forwarding, hop ``i`` carries the delivered amount plus
        all fees owed to intermediaries downstream of hop ``i``.
        """
        if not self.fee_forwarding:
            return [amount] * hops
        amounts = [amount]
        # walk backwards from the receiver; each earlier hop adds the fee
        # of the intermediary that forwards it.
        for _ in range(hops - 1):
            inbound = amounts[0] + self.fee(amounts[0])
            amounts.insert(0, inbound)
        return amounts

    # -- execution --------------------------------------------------------------

    def execute(
        self,
        sender: Hashable,
        receiver: Hashable,
        amount: float,
        timestamp: float = 0.0,
        rng=None,
    ) -> PaymentOutcome:
        """Find a route and apply it atomically.

        On success, channel balances along the path are updated and the fee
        earned by each intermediary is reported in ``fees_per_node``. On
        failure nothing changes.
        """
        try:
            route = self.find_route(sender, receiver, amount, rng=rng)
        except RoutingError as exc:
            return PaymentOutcome(success=False, failure_reason=str(exc))
        hop_amounts = self._hop_amounts(route.hops, amount)
        plan: List[Tuple[Channel, Hashable, float]] = []
        for (src, dst), hop_amount in zip(
            zip(route.nodes, route.nodes[1:]), hop_amounts
        ):
            channel = self._pick_channel(src, dst, hop_amount)
            if channel is None:
                return PaymentOutcome(
                    success=False,
                    failure_reason=(
                        f"no single channel {src!r}->{dst!r} can carry "
                        f"{hop_amount} (aggregate balance sufficed)"
                    ),
                )
            plan.append((channel, src, hop_amount))
        for channel, src, hop_amount in plan:
            channel.send(src, hop_amount, timestamp=timestamp)
        fees_per_node = {}
        for node, inbound, outbound in zip(
            route.intermediaries, hop_amounts, hop_amounts[1:]
        ):
            fees_per_node[node] = fees_per_node.get(node, 0.0) + (inbound - outbound)
        if not self.fee_forwarding:
            for node in route.intermediaries:
                fees_per_node[node] = fees_per_node.get(node, 0.0) + self.fee(amount)
        return PaymentOutcome(success=True, route=route, fees_per_node=fees_per_node)

    def _pick_channel(
        self, src: Hashable, dst: Hashable, amount: float
    ) -> Optional[Channel]:
        """Best single channel able to carry ``amount`` from src to dst.

        Prefers the channel with the largest sender-side balance, which
        keeps parallel channels evenly usable.
        """
        best: Optional[Channel] = None
        for channel in self.graph.channels_between(src, dst):
            balance = channel.balance(src)
            if balance >= amount and (best is None or balance > best.balance(src)):
                best = channel
        return best

    # -- fee quoting --------------------------------------------------------------

    def quote_fee(self, path: Sequence[Hashable], amount: float) -> float:
        """Total sender fee for pushing ``amount`` along ``path``."""
        hops = len(path) - 1
        if hops < 1:
            raise RoutingError("path needs at least one hop")
        return self._hop_amounts(hops, amount)[0] - amount
