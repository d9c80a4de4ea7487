"""The adversarial traffic engine: baseline vs. attacked simulation pairs.

:class:`AttackRunner` executes a scenario's ``attack`` stage:

1. build the topology, choose the victim on it and pre-generate the
   honest transaction trace (so the attacker's presence cannot perturb
   the honest RNG streams — both runs replay the *identical* payment
   intents);
2. run the **baseline**: the honest trace on an untouched graph;
3. run the **attacked** simulation: a copy of the same graph, taken in
   step 1 before the baseline run writes its balances back (so it starts
   from the topology's initial balances and keeps its channel ids), the
   same trace, plus the attack strategy's events interleaved on the
   engine's shared queue (attacker HTLCs contend with honest ones for the
   same balances and ``max_accepted_htlcs`` slots);
4. diff the two runs into an :class:`~repro.attacks.report.AttackReport`.

The optional ``slot_cap`` strategy parameter applies a uniform
``max_accepted_htlcs`` to every *pre-attack* channel in both runs, so slot
scarcity is studied without unfairly handicapping the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from ..determinism import ordered_sum
from ..errors import ScenarioError
from ..network.betweenness import pair_weighted_betweenness
from ..network.graph import ChannelGraph
from ..obs import ObsSession, default_session
from ..scenarios.factory import (
    build_simulation_engine,
    build_topology,
    build_workload,
)
from ..scenarios.registry import ATTACKS
from ..scenarios.specs import Scenario
from ..simulation.metrics import SimulationMetrics
from ..transactions.workload import Transaction
from .context import AttackContext, AttackResolveEvent, AttackTickEvent
from .report import AttackReport
from .strategies import AttackStrategy

__all__ = ["AttackOutcome", "AttackRunner", "select_victim"]


def select_victim(graph: ChannelGraph, victim: Optional[str] = None) -> Hashable:
    """Resolve the attack target.

    :class:`AttackRunner` chooses on the baseline graph before the
    baseline run, whose freeze then reuses the view and its tables.

    An explicit ``victim`` must exist in the graph. Otherwise the node
    with the highest pair-weighted betweenness — the one earning the most
    routing revenue under uniform traffic, hence the one whose revenue an
    attacker can destroy the most of — is chosen. Ties break toward the
    node whose ``str`` sorts first, so selection is deterministic. That
    is string order, not numeric order: node 10 wins a tie against
    node 9, and ``"n10"`` against ``"n9"``.
    """
    if victim is not None:
        if victim not in graph:
            raise ScenarioError(
                f"attack victim {victim!r} is not a node of the topology"
            )
        return victim
    scores = pair_weighted_betweenness(graph.view(directed=True)).node
    return max(sorted(scores, key=str), key=lambda n: scores[n])


@dataclass
class AttackOutcome:
    """Everything one attack execution produced (live objects + report)."""

    report: AttackReport
    baseline_metrics: SimulationMetrics
    attacked_metrics: SimulationMetrics
    #: The attacked graph (attacker channels included, balances as left
    #: by the attacked run).
    graph: ChannelGraph


class AttackRunner:
    """Runs the attack stage of a scenario (see the module docstring).

    ``obs`` instruments both runs of the pair: phase timers around the
    baseline and attacked simulations, attack-circuit trace events from
    the shared :class:`AttackContext`. Both engines publish into the one
    session, so counters accumulate across the pair.
    """

    def __init__(self, obs: Optional[ObsSession] = None) -> None:
        self._obs = obs if obs is not None else default_session()

    def run(self, scenario: Scenario) -> AttackOutcome:
        spec = scenario.attack
        if spec is None or scenario.simulation is None:
            raise ScenarioError(
                "AttackRunner needs a scenario with attack and simulation stages"
            )
        strategy = self._build_strategy(spec)
        horizon = scenario.simulation.horizon
        obs = self._obs

        # One honest trace, generated before the attacker exists, replayed
        # in both runs: the baseline/attacked diff is pure attack effect.
        with obs.phase("attack.setup"):
            baseline_graph = build_topology(
                scenario.topology, seed=scenario.seed
            )
            if strategy.slot_cap is not None:
                baseline_graph.set_htlc_slot_cap(strategy.slot_cap)
            victim = select_victim(baseline_graph, strategy.victim)
            workload = build_workload(scenario, baseline_graph)
            trace: List[Transaction] = list(workload.generate(horizon))
            # Copied before the baseline run writes its balances back.
            attacked_graph = baseline_graph.copy()

        # run() drains resolve events scheduled past the horizon — same
        # contract as the plain simulation stage, so attack and non-attack
        # rows of one sweep report comparable success rates. Attacker
        # events are never scheduled past the horizon (ctx.schedule), so
        # the attacked queue drains too.
        baseline = build_simulation_engine(scenario, baseline_graph, obs=obs)
        baseline.schedule_transactions(trace)
        with obs.phase("attack.baseline"):
            baseline_metrics = baseline.run()
        baseline_metrics.horizon = horizon

        engine = build_simulation_engine(scenario, attacked_graph, obs=obs)
        engine.schedule_transactions(trace)
        ctx = AttackContext(
            graph=attacked_graph,
            engine=engine,
            victim=victim,
            horizon=horizon,
            budget=strategy.budget,
            seed=scenario.seed,
            obs=obs,
        )
        engine.register_handler(
            AttackTickEvent, lambda event: strategy.on_tick(ctx, event)
        )
        engine.register_handler(
            AttackResolveEvent, lambda event: strategy.on_resolve(ctx, event)
        )
        strategy.start(ctx)
        with obs.phase("attack.attacked"):
            attacked_metrics = engine.run()
        attacked_metrics.horizon = horizon
        ctx.finalize()

        report = self._report(
            strategy, ctx, victim, horizon, baseline_metrics, attacked_metrics
        )
        return AttackOutcome(
            report=report,
            baseline_metrics=baseline_metrics,
            attacked_metrics=attacked_metrics,
            graph=attacked_graph,
        )

    def _build_strategy(self, spec) -> AttackStrategy:
        builder = ATTACKS.get(spec.kind)
        try:
            strategy = builder(**spec.params)
        except TypeError as exc:
            raise ScenarioError(
                f"attack {spec.kind!r} rejected params {spec.params!r}: {exc}"
            ) from exc
        if not isinstance(strategy, AttackStrategy):
            raise ScenarioError(
                f"attack {spec.kind!r} built {type(strategy).__name__}, "
                "which does not satisfy the AttackStrategy protocol"
            )
        return strategy

    @staticmethod
    def _report(
        strategy: AttackStrategy,
        ctx: AttackContext,
        victim: Hashable,
        horizon: float,
        baseline: SimulationMetrics,
        attacked: SimulationMetrics,
    ) -> AttackReport:
        baseline_victim = baseline.revenue.get(victim, 0.0)
        attacked_victim = attacked.revenue.get(victim, 0.0)
        return AttackReport(
            strategy=strategy.name,
            victim=str(victim),
            horizon=horizon,
            budget=strategy.budget,
            budget_spent=ctx.budget_spent,
            attacker_fees_paid=ctx.fees_paid,
            attacker_upfront_paid=ctx.upfront_paid,
            attacks_launched=ctx.attacks_launched,
            attacks_held=ctx.attacks_held,
            attacks_rejected=ctx.attacks_rejected,
            locked_liquidity_integral=ctx.locked_liquidity_integral,
            baseline_attempted=baseline.attempted,
            baseline_succeeded=baseline.succeeded,
            baseline_success_rate=baseline.success_rate,
            attacked_succeeded=attacked.succeeded,
            attacked_success_rate=attacked.success_rate,
            success_rate_degradation=(
                baseline.success_rate - attacked.success_rate
            ),
            baseline_victim_revenue=baseline_victim,
            attacked_victim_revenue=attacked_victim,
            victim_revenue_delta=baseline_victim - attacked_victim,
            baseline_total_revenue=ordered_sum(baseline.revenue.values()),
            attacked_total_revenue=ordered_sum(attacked.revenue.values()),
            baseline_victim_upfront_revenue=baseline.upfront_revenue.get(
                victim, 0.0
            ),
            attacked_victim_upfront_revenue=attacked.upfront_revenue.get(
                victim, 0.0
            ),
        )
