"""Golden batched-backend results: pinned digests of seeded scenario runs.

Each case runs one seeded scenario on the batched backend and hashes its
result document with :func:`repro.service.hashing.content_hash`. The
cases cover both routing branches of the backend: BA-200 takes the
large-graph branch (bidirectional search over the frozen view), BA-60
takes the small-graph python BFS. Instant mode replays a trace; HTLC mode and the attack go
through the event queue. A change to any route choice, RNG draw, balance
update or metric booking moves a digest.

Channel ids come from a process-wide counter, so the graph section is
hashed without them; everything else in the result document is pinned
as is. Regenerate a digest only for an intentional behaviour change, and
record the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.specs import Scenario
from repro.service.hashing import content_hash

SEED = 5
FEE = {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}
ZIPF = {"kind": "poisson", "params": {"zipf_s": 1.0}}


def scenario(
    n: int, horizon: float, attack=None, capacity_mu: float = 3.0, **simulation
) -> Scenario:
    document = {
        "seed": SEED,
        "topology": {"kind": "ba", "params": {"n": n, "capacity_mu": capacity_mu}},
        "workload": ZIPF,
        "fee": FEE,
        "simulation": {"horizon": horizon, "backend": "batched", **simulation},
    }
    if attack is not None:
        document["attack"] = attack
    return Scenario.from_dict(document)


def result_digest(result) -> str:
    document = result.to_dict()
    for edge in document["graph"]["edges"]:
        del edge["channel_id"]
    return content_hash(document)


INSTANT_BA200 = [
    (
        "stream",
        "random",
        "0fe31de0fed869687ccd118868dcace6acd1dd24d22b3e5c8b8b84ce513f9e7c",
    ),
    (
        "stream",
        "first",
        "586979026d51b397eb99585abbdd360b968fcf18ced69193039b63675d3ef7a1",
    ),
    (
        "payment",
        "random",
        "e17b88cffb94b6ab6803309b28798d99d7da6b7a9f6d548c51444c6306be258d",
    ),
    (
        "payment",
        "first",
        "49ad53306cb42b8fd9ee51eac5a813e8a6bfe296173be95afebfb5877c337a9b",
    ),
]


@pytest.mark.parametrize(
    "route_rng, path_selection, expected",
    INSTANT_BA200,
    ids=[f"{rng}-{sel}" for rng, sel, _ in INSTANT_BA200],
)
def test_instant_ba200(route_rng, path_selection, expected):
    result = ScenarioRunner().run(
        scenario(200, 6.0, route_rng=route_rng, path_selection=path_selection)
    )
    assert result_digest(result) == expected


#: Depleted BA-200 (capacity_mu=1.0): about 60% of payments fail, most
#: with ``no-capacity-path``, so searches often end with no path or meet
#: on a frontier the balance mask cuts.
DEPLETED_BA200 = [
    ("random", "08fdbed737bf77d5969c2c4f98206b4f9ee3538382403206fc7603be7780f3cb"),
    ("first", "08e08b15240fd25f3b3f2974603df430cbc97709317203b3249074b4843c5c40"),
]


@pytest.mark.parametrize(
    "path_selection, expected",
    DEPLETED_BA200,
    ids=[sel for sel, _ in DEPLETED_BA200],
)
def test_instant_ba200_depleted(path_selection, expected):
    result = ScenarioRunner().run(
        scenario(200, 6.0, capacity_mu=1.0, path_selection=path_selection)
    )
    assert result_digest(result) == expected


def test_instant_ba60():
    result = ScenarioRunner().run(scenario(60, 10.0))
    assert result_digest(result) == (
        "5f49d9791a43e0a404cba053d7d3604d9640214f8da03888db765fcf9d1e764a"
    )


def test_htlc_ba60():
    result = ScenarioRunner().run(
        scenario(60, 10.0, payment_mode="htlc", htlc_hold_mean=0.5)
    )
    assert result_digest(result) == (
        "8c9d625c0fbb0a65c8035314c75b5bc8ee4bb59219f6beafaae0f30365afe0eb"
    )


def test_htlc_ba200():
    result = ScenarioRunner().run(
        scenario(200, 3.0, payment_mode="htlc", htlc_hold_mean=0.5)
    )
    assert result_digest(result) == (
        "6f2127d672d4a65026663c783579030060d8032ee7225195acc2ff4f8143c4ef"
    )


def test_slow_jamming_ba60():
    attack = {"kind": "slow-jamming", "params": {"budget": 200.0}}
    report = ScenarioRunner().run(
        scenario(60, 5.0, attack=attack, payment_mode="htlc")
    ).attack
    assert content_hash(report.to_dict()) == (
        "bc2932c0d4ad1e290f181711eab63ac415357882f0253c0b2f008dfedab2bde1"
    )
