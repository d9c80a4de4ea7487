"""The joining user's utility model (Section II-C).

:class:`JoiningUserModel` evaluates, for a new user ``u`` with candidate
strategy ``S``:

    U(S)   = E_rev(S) - E_fees(S) - Σ_{(v,l) in S} L_u(v, l)
    U'(S)  = E_rev(S) - E_fees(S)               (Thm 2's monotone part)
    U^b(S) = C_u + U(S)                         (Section III-D benefit)

Following the paper's submodularity proofs ("we assume λ_xy / p_trans are
fixed values"), the transaction distribution is *frozen* at construction:
pair probabilities are computed once on the base graph, as one ``(n, n)``
array from :meth:`TransactionDistribution.pair_probabilities
<repro.transactions.distributions.TransactionDistribution.pair_probabilities>`,
and held constant while strategies vary; the pair weights are
``W = N[:, None] * P``. The equilibrium module re-derives distributions
per deviation instead (Section IV recomputes rank factors after each
change).

Strategies are scored in closed form, without building the augmented
graph. Every shortest path through ``u`` has the shape
``s ⇝ p -> u -> q ⇝ r`` and both halves lie in the fixed base graph, so
hop distances ``D`` and shortest-path counts ``Σ`` of the base graph,
computed once per view by :func:`~repro.network.views.all_pairs_paths`
(one dense level-synchronous pass for every source), give

    d(s, u) = 1 + min_{p in P_in} D[s, p]
    σ(s, u) = sum of Σ[s, p] over the minimising p
    d(u, r) = 1 + min_{q in P_out} D[q, r],  σ(u, r) likewise

where ``P_in`` / ``P_out`` are the peers whose channels can carry
``routing_amount`` towards / away from ``u``. With ``T = d(s, u) + d(u, r)``
a pair routes through ``u`` when ``T <= D[s, r]``, and ``u`` carries the
share ``σ(s,u)σ(u,r) / ([D[s,r] = T] Σ[s,r] + σ(s,u)σ(u,r))`` of its traffic
(Eq. 2/Eq. 3); ``E_fees`` charges ``d(u, r)`` hops per own payment.
:meth:`JoiningUserModel.with_strategy` still builds the augmented graph
for callers that need it.

One kernel, :meth:`JoiningUserModel.objectives`, scores a batch of ``k``
strategies; every scalar method is a batch of one. It gathers each
strategy's ``P_in`` columns and ``P_out`` rows of ``D`` and ``Σ`` into a
``(k, p_max, n)`` block padded with a sentinel row of ``inf`` / ``0``,
whose minimum and tie count give the four ``(k, n)`` sides. One
``(k, n, n)`` pass then marks the pairs routing through ``u``, and
shares are computed only at those entries. They come out per strategy
in the row-major order a batch of one lists them in, and each strategy
takes one ``np.dot`` over its own run of them. ``E_fees`` sums each
strategy's receiver terms one after another, in ``own_probs`` order.
A batch therefore returns, bit for bit, what ``k`` batches of one
return. Batches are split so that ``k · n²`` stays under
:data:`BATCH_CELLS`: past that the pass outgrows the cache and costs
more per strategy, not less.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..determinism import ordered_sum
from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph
from ..network.views import all_pairs_paths
from ..params import DEFAULT_PARAMS, ModelParameters
from ..transactions.distributions import (
    TransactionDistribution,
    UniformDistribution,
)
from ..transactions.ranking import DegreeRanking
from ..transactions.zipf import ModifiedZipf
from .costmodels import CostModel
from .fees_paid import HOP_CONVENTIONS
from .strategy import Action, Strategy

__all__ = ["JoiningUserModel", "OBJECTIVE_KINDS"]

#: The objectives :meth:`JoiningUserModel.objectives` scores.
OBJECTIVE_KINDS = ("simplified", "utility", "benefit")

#: Upper bound on ``k · n²``, the cells of one batch's ``(k, n, n)``
#: revenue pass; longer strategy lists are scored in chunks. On a 2-core
#: VM the cost per strategy falls with the batch up to ~2-6e5 cells and
#: rises past ~1e6, as the pass outgrows the cache (BA-200: 130 µs at
#: 16 strategies, 200 µs at 128).
BATCH_CELLS = 1 << 18

#: Hop distances and shortest-path counts between ``u`` and every base
#: node, one row per strategy: ``(d, σ)`` as ``(k, n)`` float arrays,
#: ``inf`` / ``0`` where unreachable.
_Side = Tuple[np.ndarray, np.ndarray]


def _batch_size(n: int) -> int:
    """Strategies per chunk on an ``n``-node base graph."""
    return max(1, BATCH_CELLS // max(1, n * n))


class JoiningUserModel:
    """Utility of a new user joining a PCN with a given strategy.

    Args:
        graph: the existing PCN; must *not* contain ``new_user``. Treat
            it as read-only while the model is in use: the model freezes
            its reduced directed view at construction.
        new_user: identifier of the joining node.
        params: model scalars (``C``, ``r``, ``f_avg``, ``f^T_avg``, ``N``,
            ``N_u``, ``s``).
        distribution: ``p_trans`` among existing nodes; defaults to the
            paper's modified Zipf with ``params.zipf_s``.
        own_probs: ``p_trans(new_user, v)`` — the joining user's receiver
            distribution. Defaults to modified-Zipf rank factors over the
            base graph (or uniform when ``distribution`` is uniform).
        sender_rates: ``N_v`` per existing node; defaults to splitting
            ``params.total_tx_rate`` equally.
        hop_convention: fee distance convention, see
            :mod:`repro.core.fees_paid`.
        peer_deposit: coins the counterparty locks on its side of each new
            channel: a float, or ``"match"`` to mirror ``u``'s lock
            (dual-funded channel).
        routing_amount: when > 0, evaluate on the reduced subgraph that can
            carry this amount (Section II-B); makes locked capital matter.
        revenue_mode: how ``E_rev`` is computed.

            * ``"betweenness"`` (default) — exact pair-weighted intermediary
              betweenness of ``u`` in the augmented graph. Physically
              faithful, but **not** submodular: a second channel can create
              transit where one channel earns nothing, so marginal revenue
              can jump upward.
            * ``"fixed-rate"`` — the paper's Thm 1-5 assumption that
              "λ_xy is a fixed value": each candidate peer ``v`` gets a
              rate ``λ̂(v)`` estimated once (traffic on the directed edge
              ``u -> v`` when ``u`` is connected to *every* peer) and
              ``E_rev(S) = f_avg * Σ_{v in peers(S)} λ̂(v)`` is modular.
              This is the mode under which the submodularity/monotonicity
              theorems and the greedy guarantee hold exactly.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        new_user: Hashable,
        params: ModelParameters = DEFAULT_PARAMS,
        distribution: Optional[TransactionDistribution] = None,
        own_probs: Optional[Mapping[Hashable, float]] = None,
        sender_rates: Optional[Mapping[Hashable, float]] = None,
        hop_convention: str = "path-length",
        peer_deposit: Union[float, str] = "match",
        routing_amount: float = 0.0,
        revenue_mode: str = "betweenness",
        cost_model: Optional["CostModel"] = None,
    ) -> None:
        if new_user in graph:
            raise InvalidParameter(
                f"new user {new_user!r} is already in the graph; "
                "JoiningUserModel models a node that has not joined yet"
            )
        if len(graph) < 1:
            raise InvalidParameter("base graph must have at least one node")
        if routing_amount < 0:
            raise InvalidParameter("routing_amount must be >= 0")
        if isinstance(peer_deposit, str) and peer_deposit != "match":
            raise InvalidParameter("peer_deposit must be a float or 'match'")
        if revenue_mode not in ("betweenness", "fixed-rate"):
            raise InvalidParameter(
                "revenue_mode must be 'betweenness' or 'fixed-rate', "
                f"got {revenue_mode!r}"
            )
        if hop_convention not in HOP_CONVENTIONS:
            raise InvalidParameter(
                f"hop_convention must be one of {HOP_CONVENTIONS}, "
                f"got {hop_convention!r}"
            )

        self.base_graph = graph
        self.new_user = new_user
        self.params = params
        self.hop_convention = hop_convention
        self.peer_deposit = peer_deposit
        self.routing_amount = routing_amount
        self.revenue_mode = revenue_mode
        self.cost_model = cost_model
        self._fixed_rates: Optional[Dict[Hashable, float]] = None
        # With nothing to route, any balance total (all are >= 0) carries
        # it: every linked peer is in both P_in and P_out.
        self._every_link_routes = routing_amount == 0 and (
            peer_deposit == "match" or peer_deposit >= 0
        )
        self._view = graph.view(directed=True, reduced=routing_amount)

        if distribution is None:
            distribution = ModifiedZipf(graph, s=params.zipf_s)
        self.distribution = distribution

        # Freeze pair probabilities among existing nodes (paper's fixed
        # p_trans assumption for Thm 1-5), in view order. Senders the
        # distribution does not know about simply send nothing.
        self._probs = distribution.pair_probabilities(self._view.nodes)

        # Freeze the joining user's own receiver distribution.
        if own_probs is not None:
            total = ordered_sum(p for p in own_probs.values() if p > 0)
            if total <= 0:
                raise InvalidParameter("own_probs must have positive mass")
            self._own_probs = {
                v: p / total for v, p in own_probs.items() if p > 0
            }
        elif isinstance(distribution, UniformDistribution):
            n = len(graph)
            self._own_probs = {v: 1.0 / n for v in graph.nodes}
        else:
            ranking = DegreeRanking(graph)
            order, probs = ranking.probabilities(None, params.zipf_s)
            self._own_probs = dict(zip(
                [ranking.nodes[i] for i in order[0].tolist()], probs[0].tolist()
            ))
        for receiver in self._own_probs:
            if receiver not in graph:
                raise NodeNotFound(receiver)
        # The fee loop's receivers and probabilities, in own_probs order.
        fee_terms = [
            (self._view.node_index[receiver], prob)
            for receiver, prob in self._own_probs.items()
            if prob > 0
        ]
        self._fee_receivers = np.asarray(
            [index for index, _ in fee_terms], dtype=np.int64
        )
        self._fee_probs = np.asarray([prob for _, prob in fee_terms])

        if sender_rates is None:
            per_node = params.total_tx_rate / len(graph)
            sender_rates = {v: per_node for v in graph.nodes}
        self._sender_rates = dict(sender_rates)

        # Base-graph tables, built on first use (``(D, Σ)`` is cached on
        # the view).
        self._row_tables: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._reach_table: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None

        # Evaluation accounting (Thm 4/5 cost claims).
        self.stats = {"revenue_evals": 0, "fee_evals": 0}

    def _deposit_for(self, action: Action) -> float:
        if self.peer_deposit == "match":
            return action.locked
        return float(self.peer_deposit)

    def with_strategy(self, strategy: Strategy) -> ChannelGraph:
        """A fresh, independent copy of the network with ``strategy`` applied."""
        graph = self.base_graph.copy()
        graph.add_node(self.new_user)
        for action in strategy:
            graph.add_channel(
                self.new_user, action.peer, action.locked, self._deposit_for(action)
            )
        return graph

    # -- closed-form pieces ---------------------------------------------------------

    def _reach(self) -> np.ndarray:
        """``D`` with ``inf`` lowered to the largest float. A finite route
        length never exceeds it and ``inf`` always does, so ``T <= reach``
        is ``T <= D`` for finite ``T`` and false for unreachable ones."""
        if self._reach_table is None:
            dist, _ = all_pairs_paths(self._view)
            self._reach_table = np.where(
                np.isinf(dist), np.finfo(float).max, dist
            )
        return self._reach_table

    def _gather_rows(self, outgoing: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Row tables of one side, each with a sentinel row ``n`` of
        ``inf`` / ``0`` for padding: ``(D, Σ)`` rows for ``d(q, ·)`` when
        ``outgoing``, else ``(Dᵀ, Σᵀ)`` rows for ``d(·, p)``."""
        key = "out" if outgoing else "in"
        tables = self._row_tables.get(key)
        if tables is None:
            dist, sigma = all_pairs_paths(self._view)
            if not outgoing:
                dist, sigma = dist.T, sigma.T
            n = dist.shape[0]
            tables = (
                np.vstack([dist, np.full((1, n), np.inf)]),
                np.vstack([sigma, np.zeros((1, n))]),
            )
            self._row_tables[key] = tables
        return tables

    def _pair_weights(self) -> np.ndarray:
        """``W[s, r] = N_s * p_trans(s, r)``; zero rows for silent senders."""
        if self._weights is None:
            rates = np.array([
                max(self._sender_rates.get(sender, 0.0), 0.0)
                for sender in self._view.nodes
            ])
            self._weights = rates[:, None] * self._probs
        return self._weights

    def _peer_sets(self, strategy: Strategy) -> Tuple[List[int], List[int]]:
        """``(P_in, P_out)`` as sorted base-view indices.

        Parallel actions to one peer aggregate the way the view aggregates
        parallel channels; a direction counts when its summed balance can
        carry ``routing_amount``.
        """
        if self._every_link_routes:
            index = self._view.node_index
            try:
                peers = sorted({index[action.peer] for action in strategy})
            except KeyError as error:
                raise NodeNotFound(error.args[0]) from None
            return peers, peers
        locked: Dict[Hashable, float] = {}
        deposit: Dict[Hashable, float] = {}
        for action in strategy:
            if action.peer not in self._view.node_index:
                raise NodeNotFound(action.peer)
            locked[action.peer] = locked.get(action.peer, 0.0) + action.locked
            deposit[action.peer] = (
                deposit.get(action.peer, 0.0) + self._deposit_for(action)
            )
        index = self._view.node_index
        amount = self.routing_amount
        p_in = sorted(index[p] for p, total in deposit.items() if total >= amount)
        p_out = sorted(index[p] for p, total in locked.items() if total >= amount)
        return p_in, p_out

    def _sides(self, peer_sets: Sequence[List[int]], outgoing: bool) -> _Side:
        """``(k, n)`` distances and path counts between ``u`` and every
        base node, one row per peer set: ``d(u, ·)`` over links to ``P_out``
        when ``outgoing``, else ``d(·, u)`` over links to ``P_in``.

        The peer rows are gathered into a ``(k, p_max, n)`` block padded
        with the sentinel row; the minimum over the peers and the path
        counts of the peers that attain it give the side.
        """
        dist_rows, sigma_rows = self._gather_rows(outgoing)
        sentinel = dist_rows.shape[0] - 1
        width = max(1, max(len(peers) for peers in peer_sets))
        index = np.array(
            [peers + [sentinel] * (width - len(peers)) for peers in peer_sets],
            dtype=np.intp,
        )
        block = dist_rows[index]
        best = block.min(axis=1)
        counts = np.where(
            block == best[:, None, :], sigma_rows[index], 0.0
        ).sum(axis=1)
        return best + 1.0, counts

    def _fees_from(self, from_user: np.ndarray) -> List[float]:
        """``E_fees`` for each row of ``d(u, ·)``; ``inf`` when a receiver
        with positive probability is unreachable.

        ``np.cumsum`` adds each row's terms one after another, in
        ``own_probs`` order, as a python loop over the receivers would.
        """
        hops = from_user[:, self._fee_receivers]
        if self.hop_convention == "intermediaries":
            hops = np.maximum(hops - 1.0, 0.0)
        totals = np.cumsum(hops * self._fee_probs, axis=1)[:, -1]
        scale = self.params.user_tx_rate * self.params.fee_out_avg
        return [
            total if total == math.inf else scale * total
            for total in totals.tolist()
        ]

    def _revenues_from(self, to_user: _Side, from_user: _Side) -> List[float]:
        """``E_rev`` (betweenness mode) for each row pair of the sides.

        One ``(k, n, n)`` pass finds the pairs routing through ``u``;
        shares are computed only there. The through entries come out per
        strategy in row-major order, so each strategy's ``np.dot`` runs
        over the entries, in the order, of a batch of one.
        """
        _, sigma = all_pairs_paths(self._view)
        reach = self._reach()
        to_dist, paths_in = to_user
        from_dist, paths_out = from_user
        k, n = to_dist.shape
        cells = n * n
        via = to_dist[:, :, None] + from_dist[:, None, :]
        # Flat (strategy, s, r) indices of the pairs routing through u.
        through = np.flatnonzero(via <= reach)
        pair = through % cells
        paths = (
            paths_in.ravel()[through // n]
            * paths_out.ravel()[through // cells * n + through % n]
        )
        tied = np.where(
            reach.ravel()[pair] == via.ravel()[through],
            sigma.ravel()[pair],
            0.0,
        )
        shares = paths / (tied + paths)
        weights = self._pair_weights().ravel()[pair]
        bounds = np.searchsorted(through, np.arange(k + 1) * cells).tolist()
        fee_avg = self.params.fee_avg
        return [
            fee_avg * float(np.dot(weights[lo:hi], shares[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def _fixed_rate_revenue(self, strategy: Strategy) -> float:
        rates = self._estimate_fixed_rates()
        peers = set()
        for action in strategy:
            if self.routing_amount > 0 and action.locked < self.routing_amount:
                continue  # channel too thin to route the amount
            peers.add(action.peer)
        return self.params.fee_avg * ordered_sum(rates.get(p, 0.0) for p in peers)

    def _score(
        self,
        strategies: Sequence[Strategy],
        fees: bool = True,
        revenue: bool = True,
    ) -> Tuple[List[float], List[float]]:
        """``(E_fees, E_rev)`` of one batch of at most :func:`_batch_size`
        strategies.

        With ``fees``, revenue is evaluated only for strategies whose fees
        are finite (a disconnected strategy scores ``-inf`` on its fees
        alone); the others hold ``-inf``. Counts ``stats``.
        """
        k = len(strategies)
        peer_sets = [self._peer_sets(strategy) for strategy in strategies]
        fee_values: List[float] = []
        live = list(range(k))
        betweenness = revenue and self.revenue_mode == "betweenness"
        from_user: Optional[_Side] = None
        if fees or betweenness:
            from_user = self._sides([p_out for _, p_out in peer_sets], True)
        if fees:
            self.stats["fee_evals"] += k
            fee_values = self._fees_from(from_user[0])
            live = [i for i, value in enumerate(fee_values) if value != math.inf]
        revenues = [-math.inf] * k
        if revenue and live:
            self.stats["revenue_evals"] += len(live)
            if betweenness:
                to_user = self._sides([peer_sets[i][0] for i in live], False)
                out = from_user if len(live) == k else (
                    from_user[0][live], from_user[1][live]
                )
                for i, value in zip(live, self._revenues_from(to_user, out)):
                    revenues[i] = value
            else:
                for i in live:
                    revenues[i] = self._fixed_rate_revenue(strategies[i])
        return fee_values, revenues

    # -- utility components --------------------------------------------------------

    def _pair_weight(self, sender: Hashable, receiver: Hashable) -> float:
        index = self._view.node_index
        s, r = index.get(sender), index.get(receiver)
        if s is None or r is None:
            return 0.0
        return self._pair_weights().item(s, r)

    def _estimate_fixed_rates(self) -> Dict[Hashable, float]:
        """``λ̂(v)``: rate on the directed edge ``u -> v`` when ``u`` is
        connected to every existing node (the fixed-λ estimate)."""
        if self._fixed_rates is not None:
            return self._fixed_rates
        full = self.base_graph.copy()
        full.add_node(self.new_user)
        nominal = max(self.routing_amount, 1.0)
        for peer in self.base_graph.nodes:
            full.add_channel(self.new_user, peer, nominal, nominal)
        view = full.view(directed=True, reduced=self.routing_amount)
        sources = [
            v for v in self.base_graph.nodes if self._sender_rates.get(v, 0) > 0
        ]
        from ..network.betweenness import pair_weighted_betweenness

        profile = pair_weighted_betweenness(
            view, self._pair_weight, sources=sources
        )
        self._fixed_rates = {
            peer: profile.edge_value(self.new_user, peer)
            for peer in self.base_graph.nodes
        }
        return self._fixed_rates

    def expected_revenue(self, strategy: Strategy) -> float:
        """``E_rev(S)`` — routing revenue per unit time (Eq. 3).

        See the class docstring for the two revenue modes.
        """
        return self._score([strategy], fees=False)[1][0]

    def expected_fees(self, strategy: Strategy) -> float:
        """``E_fees(S)`` — fees paid for the user's own traffic."""
        return self._score([strategy], revenue=False)[0][0]

    def channel_costs(self, strategy: Strategy) -> float:
        """``Σ L_u(v, l)`` for the strategy.

        Uses the pluggable ``cost_model`` when one was supplied (e.g. the
        Guasoni-style :class:`~repro.core.costmodels.DiscountedOpportunityCost`);
        defaults to the paper's linear ``C + r*l`` from the parameters.
        """
        if self.cost_model is not None:
            return self.cost_model.strategy_cost(
                action.locked for action in strategy
            )
        return strategy.utility_cost(self.params)

    # -- objectives -----------------------------------------------------------------

    def objectives(
        self, strategies: Sequence[Strategy], kind: str = "simplified"
    ) -> List[float]:
        """The ``kind`` objective of each strategy, in order: the batch
        kernel behind every scalar method (see the module docstring)."""
        if kind not in OBJECTIVE_KINDS:
            raise InvalidParameter(
                f"objective kind must be simplified/utility/benefit, got {kind!r}"
            )
        strategies = list(strategies)
        step = _batch_size(self._view.num_nodes)
        values: List[float] = []
        for start in range(0, len(strategies), step):
            chunk = strategies[start:start + step]
            fees, revenues = self._score(chunk)
            values.extend(
                self._combine(kind, strategy, revenue, fee)
                for strategy, revenue, fee in zip(chunk, revenues, fees)
            )
        return values

    def _combine(
        self, kind: str, strategy: Strategy, revenue: float, fees: float
    ) -> float:
        """The ``kind`` objective from one strategy's revenue and fees."""
        if math.isinf(fees):
            return -math.inf
        if kind == "simplified":
            return revenue - fees
        utility = revenue - fees - self.channel_costs(strategy)
        if kind == "utility":
            return utility
        if math.isinf(utility):
            return -math.inf
        return self.params.onchain_alternative_cost() + utility

    def utility(self, strategy: Strategy) -> float:
        """Full utility ``U(S)``; ``-inf`` when disconnected (Section II-C)."""
        return self.objectives([strategy], "utility")[0]

    def objective(self, strategy: Strategy, kind: str = "simplified") -> float:
        """The ``kind`` objective of one strategy (a batch of one)."""
        return self.objectives([strategy], kind)[0]

    # -- introspection ---------------------------------------------------------------

    @property
    def own_probs(self) -> Dict[Hashable, float]:
        """The joining user's frozen receiver distribution."""
        return dict(self._own_probs)

    @property
    def sender_rates(self) -> Dict[Hashable, float]:
        return dict(self._sender_rates)

