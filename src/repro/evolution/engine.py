"""The epoch-based network evolution engine.

The paper analyses the creation game at a *static* equilibrium; this
engine asks the dynamic question behind it — which topologies emerge and
persist when the network keeps changing. Each epoch runs four phases in
a fixed order:

1. **arrivals** — the :class:`~repro.evolution.growth.ArrivalProcess`
   admits new nodes, each joining through a registered
   :class:`JoinAlgorithm <repro.scenarios.registry.JoinAlgorithm>`;
2. **churn** — the :class:`~repro.evolution.churn.ChurnProcess` departs
   nodes; every closed channel realises Section II-C closure costs
   through :class:`~repro.network.lifecycle.ChannelLifecycle`;
3. **traffic** — a Poisson workload over ``traffic_horizon`` time units
   replays on the batched backend
   (:class:`~repro.simulation.fastpath.BatchedSimulationEngine`),
   measured on a copy of the graph so epochs observe steady-state
   liquidity, and feeds per-node revenue / success rates into the
   :class:`~repro.evolution.utility.UtilityProvider`;
4. **best response** — a sampled subset of nodes is swept in canonical
   order; each node's best deviation (within the configured family and
   ``add_budget``) is applied when strictly improving.

Everything stochastic draws from one seeded generator (plus per-epoch
seeds derived with :func:`~repro.scenarios.grid.derive_seed`), so a run
is bit-identical for a fixed seed. The result is a
:class:`~repro.evolution.trajectory.Trajectory` with per-epoch topology
statistics, welfare, revenue Gini, and the empirical distance-to-NE.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..determinism import ordered_sum
from ..equilibrium.deviations import (
    Deviation,
    apply_deviation,
    exhaustive_deviations,
    sampled_deviations,
    structured_deviations,
)
from ..equilibrium.nash import best_response, check_nash
from ..equilibrium.node_utility import NetworkGameModel
from ..network.fees import FeeFunction
from ..network.graph import ChannelGraph
from ..network.lifecycle import ChannelLifecycle, sample_close_mode
from ..obs import ObsSession, default_session
from ..scenarios.grid import derive_seed
from ..scenarios.specs import EvolutionSpec
from ..simulation.fastpath import BatchedSimulationEngine
from ..simulation.metrics import SimulationMetrics
from ..transactions.workload import PoissonWorkload, Transaction
from ..transactions.zipf import ModifiedZipf
from .churn import ChurnProcess
from .growth import ArrivalProcess
from .trajectory import EpochRecord, Trajectory, classify_topology, gini
from .utility import (
    AnalyticUtilityProvider,
    EmpiricalUtilityProvider,
    UtilityProvider,
)

__all__ = ["EvolutionEngine"]

#: Node-id prefix for arriving nodes (topology builders use ``v...``).
ARRIVAL_PREFIX = "n"


class EvolutionEngine:
    """Evolves a channel graph over epochs of arrivals/churn/traffic/BR.

    Args:
        graph: the initial topology (copied; the engine's working graph
            is exposed as :attr:`graph` and reflects the latest epoch).
        spec: the :class:`~repro.scenarios.specs.EvolutionSpec`.
        growth: arrival process (``None`` = no arrivals).
        churn: departure process (``None`` = no churn).
        workload_factory: ``(graph, seed) -> PoissonWorkload`` building
            each epoch's traffic on the *current* node set. Defaults to
            a unit-rate modified-Zipf workload at the spec's ``zipf_s``.
        fee: fee function for the traffic epochs and the empirical
            provider's replays.
        utility_provider: override the provider the spec would build.
        seed: master seed; every stochastic phase derives from it.
        obs: instrumentation session — per-phase wall time, per-epoch
            trace events, traffic-engine counters. Never touches the
            run's RNG streams, so results are obs-invariant.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        spec: EvolutionSpec,
        growth: Optional[ArrivalProcess] = None,
        churn: Optional[ChurnProcess] = None,
        workload_factory: Optional[
            Callable[[ChannelGraph, int], PoissonWorkload]
        ] = None,
        fee: Optional[FeeFunction] = None,
        utility_provider: Optional[UtilityProvider] = None,
        seed: int = 0,
        obs: Optional[ObsSession] = None,
    ) -> None:
        self.graph = graph.copy()
        self.spec = spec
        self.growth = growth
        self.churn = churn
        self.fee = fee
        self.seed = seed
        self._obs = obs if obs is not None else default_session()
        self._rng = np.random.default_rng(seed)
        self._lifecycle = ChannelLifecycle(spec.onchain_fee)
        self._arrival_counter = 0
        self.model = NetworkGameModel(
            a=spec.a, b=spec.b, edge_cost=spec.edge_cost, zipf_s=spec.zipf_s
        )
        if utility_provider is not None:
            self.provider: UtilityProvider = utility_provider
        elif spec.utility == "analytic":
            self.provider = AnalyticUtilityProvider(self.model)
        else:
            self.provider = EmpiricalUtilityProvider(
                edge_cost=spec.edge_cost, fee=fee
            )
        if workload_factory is None:
            workload_factory = self._default_workload
        self._workload_factory = workload_factory

    # -- phases ----------------------------------------------------------------

    def _default_workload(
        self, graph: ChannelGraph, seed: int
    ) -> PoissonWorkload:
        return PoissonWorkload(
            ModifiedZipf(graph, s=self.spec.zipf_s),
            {node: 1.0 for node in graph.nodes},
            seed=seed,
        )

    def _next_arrival_id(self) -> str:
        while True:
            node_id = f"{ARRIVAL_PREFIX}{self._arrival_counter:05d}"
            self._arrival_counter += 1
            if node_id not in self.graph:
                return node_id

    def _arrival_phase(self, epoch_seed: int) -> int:
        if self.growth is None:
            return 0
        joined = 0
        count = self.growth.arrivals(self._rng)
        for index in range(count):
            node_id = self._next_arrival_id()
            self.growth.join(
                self.graph, node_id, seed=derive_seed(epoch_seed, index)
            )
            # An empty join strategy opens no channel, so the arrival
            # never actually enters the graph ("failed to join").
            if node_id in self.graph:
                joined += 1
        return joined

    def _churn_phase(self) -> Tuple[int, float]:
        if self.churn is None:
            return 0, 0.0
        departures = self.churn.departures(self.graph, self._rng)
        closure_costs = 0.0
        for node in departures:
            for _channel in self.graph.channels_of(node):
                costs = self._lifecycle.realise(
                    close_mode=sample_close_mode(self._rng)
                )
                closure_costs += costs.close_cost_u + costs.close_cost_v
            self.graph.remove_node(node)
        return len(departures), closure_costs

    def _traffic_phase(
        self, epoch_seed: int
    ) -> Tuple[Optional[SimulationMetrics], List[Transaction]]:
        if self.spec.traffic_horizon <= 0:
            return None, []
        workload = self._workload_factory(self.graph, epoch_seed)
        trace = list(workload.generate(self.spec.traffic_horizon))
        # Measure on a copy: epochs observe steady-state liquidity
        # instead of compounding depletion across the whole run.
        engine = BatchedSimulationEngine(
            self.graph.copy(), fee=self.fee, seed=epoch_seed, obs=self._obs
        )
        metrics = engine.run_trace(trace)
        return metrics, trace

    def _deviation_family(
        self, node: Any, epoch_seed: int
    ) -> Sequence[Deviation]:
        spec = self.spec
        if spec.mode == "structured":
            family: Sequence[Deviation] = structured_deviations(
                self.graph, node, seed=epoch_seed
            )
        elif spec.mode == "exhaustive":
            family = exhaustive_deviations(self.graph, node)
        else:
            family = sampled_deviations(
                self.graph, node, moves=spec.moves_per_node, seed=epoch_seed
            )
        if spec.add_budget is not None:
            family = [d for d in family if len(d.add) <= spec.add_budget]
        return family

    def _best_response_phase(
        self, epoch_seed: int
    ) -> Tuple[List[Dict[str, Any]], float]:
        spec = self.spec
        nodes = sorted(self.graph.nodes, key=str)
        if spec.sample is not None and spec.sample < len(nodes):
            picked = self._rng.choice(
                len(nodes), size=spec.sample, replace=False
            )
            nodes = [nodes[i] for i in sorted(picked)]
        moves: List[Dict[str, Any]] = []
        max_gain = 0.0
        for node in nodes:
            family = self._deviation_family(node, epoch_seed)
            if not family:
                continue
            response = best_response(
                self.graph,
                node,
                self.provider,
                tolerance=spec.tolerance,
                balance=spec.balance,
                deviations=family,
            )
            if not response.can_improve:
                continue
            gain = float(response.gain)
            max_gain = max(max_gain, gain)
            deviation = response.best_deviation
            self.graph = apply_deviation(
                self.graph, node, deviation, balance=spec.balance
            )
            self.provider.rebase(self.graph)
            moves.append({
                "node": str(node),
                "gain": gain,
                "add": sorted(str(v) for v in deviation.add),
                "remove": sorted(str(v) for v in deviation.remove),
            })
        return moves, max_gain

    def _active(self) -> bool:
        """Whether any stochastic growth/churn process can still fire."""
        if self.growth is not None and self.growth.active():
            return True
        return self.churn is not None and self.churn.active()

    # -- the run ---------------------------------------------------------------

    def run(self) -> Trajectory:
        """Execute up to ``spec.epochs`` epochs and return the trajectory."""
        spec = self.spec
        records: List[EpochRecord] = []
        quiet_epochs = 0
        converged = False
        totals = {
            "total_arrivals": 0,
            "total_departures": 0,
            "total_closure_costs": 0.0,
            "total_moves": 0,
        }
        obs = self._obs
        for epoch in range(spec.epochs):
            epoch_seed = derive_seed(self.seed, epoch)
            with obs.phase("evolution.arrivals"):
                arrivals = self._arrival_phase(epoch_seed)
            with obs.phase("evolution.churn"):
                departures, closure_costs = self._churn_phase()
            with obs.phase("evolution.traffic"):
                metrics, trace = self._traffic_phase(epoch_seed)
            with obs.phase("evolution.best_response"):
                self.provider.prepare(self.graph, metrics, trace, epoch_seed)
                moves, max_gain = self._best_response_phase(epoch_seed)
            if obs.enabled:
                obs.registry.counter("evolution.epochs").inc()
                obs.event(
                    "evolution.epoch",
                    epoch=epoch, arrivals=arrivals, departures=departures,
                    moves=len(moves), nodes=len(self.graph),
                    channels=self.graph.num_channels(),
                )
            totals["total_arrivals"] += arrivals
            totals["total_departures"] += departures
            totals["total_closure_costs"] += closure_costs
            totals["total_moves"] += len(moves)
            if metrics is not None:
                revenue_gini = gini(
                    metrics.revenue.get(node, 0.0) for node in self.graph.nodes
                )
                attempted, succeeded = metrics.attempted, metrics.succeeded
                success_rate = metrics.success_rate
                total_revenue = ordered_sum(metrics.revenue.values())
            else:
                revenue_gini = 0.0
                attempted = succeeded = 0
                success_rate = total_revenue = 0.0
            records.append(EpochRecord(
                epoch=epoch,
                nodes=len(self.graph),
                channels=self.graph.num_channels(),
                arrivals=arrivals,
                departures=departures,
                closure_costs=closure_costs,
                attempted=attempted,
                succeeded=succeeded,
                success_rate=success_rate,
                total_revenue=total_revenue,
                revenue_gini=revenue_gini,
                moves=len(moves),
                max_gain=max_gain,
                welfare=self.provider.welfare(self.graph),
                topology=classify_topology(self.graph),
                move_log=tuple(moves),
            ))
            if arrivals == 0 and departures == 0 and not moves:
                quiet_epochs += 1
                # A quiet epoch only certifies convergence when no
                # stochastic process remains active: a zero-arrival
                # draw of a positive-rate Poisson process is luck, not
                # a rest point — such runs execute every epoch.
                if quiet_epochs >= spec.patience and not self._active():
                    converged = True
                    break
            else:
                quiet_epochs = 0
        nash_stable: Optional[bool] = None
        final_max_gain: Optional[float] = None
        if spec.final_nash_check:
            check_mode = "exhaustive" if spec.mode == "exhaustive" else "structured"
            report = check_nash(
                self.graph, self.model, mode=check_mode, seed=self.seed,
                tolerance=spec.tolerance, balance=spec.balance,
            )
            nash_stable = report.is_nash
            final_max_gain = float(report.max_gain())
        return Trajectory(
            records=tuple(records),
            converged=converged,
            epochs_run=len(records),
            seed=self.seed,
            final_topology=classify_topology(self.graph),
            nash_stable=nash_stable,
            final_max_gain=final_max_gain,
            totals=dict(totals),
        )
