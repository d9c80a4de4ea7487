"""Remembering refused exits within a tick changes no attack result.

:meth:`CircuitAttack.on_tick` books a retry at an exit refused earlier in
the same tick as a rejection without calling the ledger (except under a
two-sided fee, where every retry goes to the ledger). The oracle here is
a strategy subclass whose ``_launch`` is the loop without that memory:
every launch calls ``ctx.lock``. Its report must equal the shipped
strategy's on every case, and the shipped run must publish the same
rejection counter it reports.
"""

from __future__ import annotations

import pytest

from repro.attacks import (
    AttackRunner,
    FeeGriefing,
    LiquidityDepletion,
    SlowJamming,
)
from repro.attacks.context import AttackResolveEvent
from repro.attacks.strategies import ATTACKER_DST, ATTACKER_SRC
from repro.network.htlc import HtlcLedger
from repro.obs import ObsSession
from repro.scenarios.specs import Scenario

FEE = {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}
UPFRONT = dict(FEE, upfront_base=0.002, upfront_rate=0.0005)
FEES = {"linear": FEE, "upfront": UPFRONT}
SEEDS = (3, 8)


class LedgerEveryLaunch:
    """Mixin: every launch places its lock through ``ctx.lock``."""

    def _launch(self, ctx, refused=None):
        target = self.next_target(ctx)
        if target is None:
            return False
        payment = ctx.lock(
            (ATTACKER_SRC, ctx.victim, target, ATTACKER_DST), self.amount
        )
        if payment is None:
            self.on_lock_rejected(ctx, target)
            return False
        hold = self.hold_time * (0.75 + 0.5 * float(ctx.rng.random()))
        ctx.schedule(
            AttackResolveEvent(
                time=ctx.now + hold, payment_id=payment.payment_id
            )
        )
        return True


ORACLES = {
    cls.name: type(f"Oracle{cls.__name__}", (LedgerEveryLaunch, cls), {})
    for cls in (SlowJamming, LiquidityDepletion, FeeGriefing)
}


def scenario(attack: str, fee: str, mode: str, seed: int) -> Scenario:
    return Scenario.from_dict({
        "seed": seed,
        "topology": {"kind": "ba", "params": {"n": 40, "capacity_mu": 3.0}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": FEES[fee],
        "attack": {"kind": attack, "params": {"budget": 1000.0}},
        "simulation": {"horizon": 3.0, "payment_mode": mode},
    })


def run(spec: Scenario, oracle: bool = False, obs=None):
    """``(report, attacker lock calls to the ledger)`` of one attack run."""
    calls = []
    lock = HtlcLedger.lock

    def counted(self, path, amount):
        if path[0] == ATTACKER_SRC:
            calls.append(path)
        return lock(self, path, amount)

    runner = AttackRunner(obs=obs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HtlcLedger, "lock", counted)
        if oracle:
            kind = spec.attack.kind
            patch.setattr(
                runner, "_build_strategy",
                lambda attack: ORACLES[kind](**attack.params),
            )
        report = runner.run(spec).report
    return report, len(calls)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["htlc", "instant"])
@pytest.mark.parametrize("fee", sorted(FEES))
@pytest.mark.parametrize("attack", sorted(ORACLES))
def test_report_equals_ledger_every_launch(attack, fee, mode, seed):
    spec = scenario(attack, fee, mode, seed)
    obs = ObsSession(enabled=True)
    shipped, shipped_locks = run(spec, obs=obs)
    expected, oracle_locks = run(spec, oracle=True)
    assert shipped.to_dict() == expected.to_dict()
    counters = obs.registry.snapshot()["counters"]
    assert counters.get("attack.locks_rejected", 0) == shipped.attacks_rejected
    assert counters.get("attack.locks_held", 0) == shipped.attacks_held
    assert oracle_locks == shipped.attacks_launched
    if fee == "upfront":
        assert shipped_locks == oracle_locks
    else:
        assert shipped_locks <= oracle_locks


def test_retries_skip_the_ledger():
    """The cases above are not vacuous: jamming BA-40 retries refused
    exits, and the shipped run skips those retries' ledger calls."""
    spec = scenario("slow-jamming", "linear", "htlc", SEEDS[0])
    shipped, shipped_locks = run(spec)
    expected, oracle_locks = run(spec, oracle=True)
    assert shipped.to_dict() == expected.to_dict()
    assert shipped.attacks_rejected > 0
    assert shipped_locks < oracle_locks == shipped.attacks_launched
