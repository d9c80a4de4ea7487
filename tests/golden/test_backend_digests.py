"""Golden results pinned on the batched backend.

Each case runs one seeded BA-60 scenario and pins the hash of the result
document next to a readable digest: attempted and succeeded payments and
the failure-reason counts. The digests were computed on both the
batched and the since-deleted event engine, which agreed on every
readable digest; the batched hashes are the ones kept.

The cases cover the settings no other golden case reaches: a two-sided
:class:`~repro.network.fees.FeePolicy` (an upfront side in instant and in
HTLC mode), ``fee_forwarding=False``, and an attack whose ``slot_cap``
of 1 leaves every channel one HTLC slot. Regenerate a digest only for
an intentional behaviour change, and record the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.specs import Scenario
from repro.service.hashing import content_hash

SEED = 5
FEE = {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}
UPFRONT = dict(FEE, upfront_base=0.002, upfront_rate=0.0005)
HTLC = {"payment_mode": "htlc", "htlc_hold_mean": 0.5}


def readable(metrics):
    """``(attempted, succeeded, failure reasons)`` of one run's metrics."""
    return (
        metrics.attempted,
        metrics.succeeded,
        dict(sorted(metrics.failure_reasons.items())),
    )


def run(backend: str, fee, simulation, attack=None):
    document = {
        "seed": SEED,
        "topology": {"kind": "ba", "params": {"n": 60, "capacity_mu": 3.0}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": fee,
        "simulation": dict(simulation, backend=backend),
    }
    if attack is not None:
        document["attack"] = attack
    return ScenarioRunner().run(Scenario.from_dict(document))


CASES = {
    "upfront-instant": (UPFRONT, {"horizon": 10.0}),
    "upfront-htlc": (UPFRONT, dict(HTLC, horizon=5.0)),
    "no-forwarding": (FEE, {"horizon": 10.0, "fee_forwarding": False}),
}

#: ``case -> (readable digest, {backend: result hash})``.
EXPECTED = {
    "no-forwarding": (
        (569, 559, {"no-capacity-path": 10}),
        {
            "batched": "8721cad4f44a514ba94d55ea5d33381c299c28bcf0e13aa05d7087ccdfc4232b",
        },
    ),
    "upfront-htlc": (
        (297, 294, {"lock-contention": 3}),
        {
            "batched": "b31985df8e1b1234fb78d0ddaa1b8f1877ab5dad68cf5b1b21c0deceddc1c8e9",
        },
    ),
    "upfront-instant": (
        (569, 556, {"no-capacity-path": 10, "split-balance": 3}),
        {
            "batched": "6124987997c4f923a2f59d1cadbf3546944079e0b0ee63e6c603f6873797f00f",
        },
    ),
}


@pytest.mark.parametrize("backend", ["batched"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_backend_case(case, backend):
    fee, simulation = CASES[case]
    result = run(backend, fee, simulation)
    counts, digests = EXPECTED[case]
    assert (readable(result.metrics), content_hash(result.to_dict())) == (
        counts, digests[backend]
    )


#: The slow-jamming attack with one HTLC slot per channel, so honest
#: payments fail with ``no-htlc-slots``. The report is hashed as in the
#: other attack cases and carries no backend name; the readable digest
#: is the attacked run's.
SLOT_CAP_1 = {"kind": "slow-jamming", "params": {"budget": 200.0, "slot_cap": 1}}


@pytest.mark.parametrize("backend", ["batched"])
def test_slot_cap_1(backend):
    result = run(backend, FEE, dict(HTLC, horizon=5.0), attack=SLOT_CAP_1)
    digest = content_hash(result.attack.to_dict())
    assert (readable(result.metrics), digest) == (
        (297, 149, {"no-htlc-slots": 148}),
        "2be1ce60fef17aaf1d0feedee00ca550555c2abba46f788bbb9954d9c4fc0ed4",
    )
