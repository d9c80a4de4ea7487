"""Golden HTLC-mode attack reports on BA-100.

Each case runs one attack in the shape of the ``attack-htlc`` benchmark
workload (BA-100 with ``capacity_mu=3``, Zipf Poisson traffic, budget
1000, horizon 5, HTLC payments) and pins the hash of the whole
:class:`~repro.attacks.report.AttackReport` document next to a readable
digest: attacks launched, held and rejected, and the upfront fees the
attacker paid (rounded to 6 places).

The cases cover slow-jamming under the plain linear fee, and slow-jamming
and fee-griefing under the two-sided ``UPFRONT`` fee of
``test_backend_digests.py``, where every lock attempt pays for the hops
it was offered. Regenerate a digest only for an intentional behaviour
change, and record the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.attacks.runner import AttackRunner
from repro.scenarios.specs import Scenario
from repro.service.hashing import content_hash

SEED = 11
FEE = {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}
UPFRONT = dict(FEE, upfront_base=0.002, upfront_rate=0.0005)


def scenario(attack: str, fee) -> Scenario:
    return Scenario.from_dict({
        "seed": SEED,
        "topology": {"kind": "ba", "params": {"n": 100, "capacity_mu": 3.0}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": fee,
        "attack": {"kind": attack, "params": {"budget": 1000.0}},
        "simulation": {
            "horizon": 5.0, "backend": "batched", "payment_mode": "htlc",
        },
    })


def readable(report):
    """``(launched, held, rejected, upfront paid)`` of one report."""
    return (
        report.attacks_launched,
        report.attacks_held,
        report.attacks_rejected,
        round(report.attacker_upfront_paid, 6),
    )


CASES = {
    "slow-jamming-linear": ("slow-jamming", FEE),
    "slow-jamming-upfront": ("slow-jamming", UPFRONT),
    "fee-griefing-upfront": ("fee-griefing", UPFRONT),
}

#: ``case -> (readable digest, report hash)``.
EXPECTED = {
    "fee-griefing-upfront": (
        (42112, 33848, 8264, 294.236483),
        "a083c61dbda0a38f4607857f35d2848911222a29e1e22e5bd9c6f3bb5d9c8710",
    ),
    "slow-jamming-linear": (
        (1139, 762, 377, 0.0),
        "f12c798096d6747b1fc7f7e240c7054402c894933551243eb3ec59d95ae499a0",
    ),
    "slow-jamming-upfront": (
        (1139, 762, 377, 7.410678),
        "1b6b6b7eda49e873d20ce8778ae59e58c079dc7c8896ef6e5b88fb92cba5916a",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_htlc_attack_report(case):
    report = AttackRunner().run(scenario(*CASES[case])).report
    assert (readable(report), content_hash(report.to_dict())) == EXPECTED[case]
