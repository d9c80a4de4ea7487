"""Unit tests for the adversarial strategies and their context plumbing."""

import math

import pytest

from repro.equilibrium.topologies import CENTER, star
from repro.errors import ScenarioError
from repro.network.graph import ChannelGraph
from repro.network.htlc import HtlcState
from repro.scenarios.registry import ATTACKS
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.attacks import (
    AttackContext,
    AttackStrategy,
    CircuitAttack,
    FeeGriefing,
    LiquidityDepletion,
    SlowJamming,
)
from repro.attacks.strategies import ATTACKER_DST, ATTACKER_SRC


def make_ctx(budget=500.0, leaves=4, balance=10.0, horizon=50.0):
    graph = star(leaves, balance=balance)
    engine = BatchedSimulationEngine(graph, seed=0, payment_mode="htlc")
    return AttackContext(
        graph=graph, engine=engine, victim=CENTER,
        horizon=horizon, budget=budget, seed=7,
    )


class TestRegistry:
    def test_builtins_registered_with_aliases(self):
        for key in (
            "slow-jamming", "jamming",
            "liquidity-depletion", "depletion",
            "fee-griefing", "griefing",
        ):
            assert key in ATTACKS

    def test_builders_satisfy_protocol(self):
        for cls in (SlowJamming, LiquidityDepletion, FeeGriefing):
            assert isinstance(cls(budget=10.0), AttackStrategy)


class TestParamValidation:
    @pytest.mark.parametrize(
        "params",
        [
            {"budget": -1.0},
            {"amount": 0.0},
            {"rate": 0.0},
            {"hold_time": -0.5},
            {"max_exits": 0},
            {"max_concurrent": 0},
            {"headroom": 0.5},
            {"start_time": -1.0},
        ],
    )
    def test_bad_params_rejected(self, params):
        with pytest.raises(ScenarioError):
            CircuitAttack(**params)


class TestContext:
    def test_open_channel_draws_funding_and_push_from_budget(self):
        ctx = make_ctx(budget=20.0)
        channel = ctx.open_channel(ATTACKER_SRC, CENTER, funding=12.0, push=5.0)
        assert channel is not None
        assert channel.balance(ATTACKER_SRC) == 12.0
        assert channel.balance(CENTER) == 5.0
        assert ctx.budget_spent == 17.0
        assert ctx.budget_remaining == pytest.approx(3.0)

    def test_open_channel_refused_over_budget(self):
        ctx = make_ctx(budget=5.0)
        assert ctx.open_channel(ATTACKER_SRC, CENTER, funding=10.0) is None
        assert ctx.budget_spent == 0.0
        assert ATTACKER_SRC not in ctx.graph

    def test_lock_resolve_accounting(self):
        ctx = make_ctx(budget=100.0)
        ctx.open_channel(ATTACKER_SRC, CENTER, funding=50.0)
        ctx.open_channel(ATTACKER_DST, "v000", funding=0.0, push=10.0)
        ctx.engine.run()  # freezes the array state the router locks on
        payment = ctx.lock((ATTACKER_SRC, CENTER, "v000", ATTACKER_DST), 2.0)
        assert payment is not None and payment.state is HtlcState.PENDING
        assert ctx.attacks_held == 1
        assert ctx.active_locks == 1
        # zero fee engine: resolve immediately (now == lock time) books a
        # zero-duration integral and restores everything on fail.
        resolved = ctx.resolve(payment.payment_id, settle=False)
        assert resolved is payment
        assert ctx.active_locks == 0
        assert ctx.locked_liquidity_integral == 0.0
        ctx.engine.run()  # writes the balances back to the channels
        assert ctx.graph.channels_between(CENTER, "v000")[0].balance(CENTER) == 10.0

    def test_resolve_unknown_id_is_noop(self):
        ctx = make_ctx()
        assert ctx.resolve(123456, settle=True) is None

    def test_finalize_books_pending_locks_to_horizon(self):
        ctx = make_ctx(budget=100.0, horizon=50.0)
        ctx.open_channel(ATTACKER_SRC, CENTER, funding=50.0)
        ctx.open_channel(ATTACKER_DST, "v000", funding=0.0, push=10.0)
        ctx.engine.run()  # freezes the array state the router locks on
        payment = ctx.lock((ATTACKER_SRC, CENTER, "v000", ATTACKER_DST), 2.0)
        ctx.finalize()
        # 3 hops x 2.0 each held from t=0 to horizon 50
        assert ctx.locked_liquidity_integral == pytest.approx(
            payment.total_locked * 50.0
        )
        assert ctx.active_locks == 0

    def test_schedule_refuses_past_horizon(self):
        from repro.attacks import AttackTickEvent

        ctx = make_ctx(horizon=10.0)
        assert ctx.schedule(AttackTickEvent(time=5.0))
        assert not ctx.schedule(AttackTickEvent(time=10.5))


class TestPreparation:
    def test_jamming_opens_entry_and_exit_channels(self):
        ctx = make_ctx(budget=1000.0, leaves=4)
        strategy = SlowJamming(budget=1000.0)
        strategy.start(ctx)
        assert ATTACKER_SRC in ctx.graph
        assert ATTACKER_DST in ctx.graph
        assert ctx.graph.has_channel(ATTACKER_SRC, CENTER)
        # all four leaves get an exit channel with pushed inbound
        for i in range(4):
            leaf = f"v{i:03d}"
            exits = ctx.graph.channels_between(ATTACKER_DST, leaf)
            assert exits and exits[0].balance(leaf) > 0
        assert strategy._concurrent > 0
        assert ctx.budget_spent > 0

    def test_zero_budget_means_no_attack(self):
        ctx = make_ctx(budget=0.0)
        strategy = SlowJamming(budget=0.0)
        strategy.start(ctx)
        assert ATTACKER_SRC not in ctx.graph
        assert strategy._concurrent == 0

    def test_small_budget_scales_concurrency_down(self):
        rich = make_ctx(budget=1000.0)
        poor = make_ctx(budget=20.0)
        s_rich = SlowJamming(budget=1000.0)
        s_poor = SlowJamming(budget=20.0)
        s_rich.start(rich)
        s_poor.start(poor)
        assert 0 < s_poor._concurrent < s_rich._concurrent
        assert poor.budget_spent <= 20.0

    def test_max_exits_limits_exit_channels(self):
        ctx = make_ctx(budget=1000.0, leaves=4)
        strategy = SlowJamming(budget=1000.0, max_exits=2)
        strategy.start(ctx)
        exit_channels = ctx.graph.channels_of(ATTACKER_DST)
        assert len(exit_channels) == 2

    def test_depletion_tracks_remaining_per_exit(self):
        ctx = make_ctx(budget=1000.0, leaves=3)
        strategy = LiquidityDepletion(budget=1000.0)
        strategy.start(ctx)
        assert strategy._remaining
        assert all(v > 0 for v in strategy._remaining.values())


class TestDepletionTotals:
    """``LiquidityDepletion`` sizing whose float totals differ between a
    left-to-right sum and the compensated one Python 3.12's ``sum()``
    returns. The victim ``v`` holds ``balances[i]`` toward neighbor
    ``n{i}``; without fees ``ratio`` is 1, so each cost is twice its drain.
    """

    @staticmethod
    def prepare(balances, budget):
        graph = ChannelGraph()
        for index, balance in enumerate(balances):
            graph.add_channel("v", f"n{index}", balance, 1.0)
        engine = BatchedSimulationEngine(graph, seed=0, payment_mode="htlc")
        ctx = AttackContext(
            graph=graph, engine=engine, victim="v",
            horizon=10.0, budget=budget, seed=1,
        )
        strategy = LiquidityDepletion(budget=budget, amount=0.01)
        strategy.start(ctx)
        (entry,) = ctx.graph.channels_of(ATTACKER_SRC)
        return strategy._remaining, entry.balance(ATTACKER_SRC)

    def test_base_need_adds_left_to_right(self):
        # Exits richest first: 2.9 + 2.8 + 1.9 + 1.3 + 0.97.
        assert math.fsum([2.9, 2.8, 1.9, 1.3, 0.97]) == 9.87
        drains, _ = self.prepare([1.9, 2.8, 2.9, 0.97, 1.3], 8.7)
        assert drains == {
            "n2": 1.2766464032421476,
            "n1": 1.232624113475177,
            "n0": 0.8364235055724416,
            "n4": 0.572289766970618,
            "n3": 0.42701621073961493,
        }

    def test_remaining_budget_adds_left_to_right(self):
        # The last exit's drain is clipped to what the four before it
        # left of the budget, a total of their costs.
        drains, _ = self.prepare([0.84, 2.4, 2.5, 2.0, 0.43], 26.2)
        costs = [2.0 * drain for drain in list(drains.values())[:4]]
        assert math.fsum(costs) == 24.81157894736842
        assert drains["n4"] == 0.6892105263157895

    def test_entry_funding_adds_left_to_right(self):
        drains, entry = self.prepare([1.7, 0.1, 1.3, 2.76], 5.6)
        assert list(drains.values()) == [
            1.3164163822525599, 0.8108361774744028,
            0.6200511945392492, 0.04769624573378772,
        ]
        assert math.fsum(drains.values()) == 2.7949999999999995
        # One HTLC of slack plus the drained total.
        assert entry == 2.8049999999999997
