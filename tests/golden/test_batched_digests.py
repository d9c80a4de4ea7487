"""Golden batched-backend results: pinned digests of seeded scenario runs.

Each case runs one seeded scenario on the batched backend and hashes its
result document with :func:`repro.service.hashing.content_hash`. The
cases cover both routing branches of the backend: BA-200 takes the
large-graph branch (bidirectional search over the frozen view); BA-60
and the 140-node circle take the small-graph branch (the guided search
of the shortest-path DAG). Instant mode replays a trace; HTLC mode and
the attacks go through the event queue. A change to any route choice,
RNG draw, balance update or metric booking moves a digest. Cases added
after the first ten also pin a readable digest next to the hash:
attempted and succeeded payments and the failure-reason counts, so a
failure shows what changed.

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


def readable(metrics):
    """``(attempted, succeeded, failure reasons)`` of one run's metrics."""
    return (
        metrics.attempted,
        metrics.succeeded,
        dict(sorted(metrics.failure_reasons.items())),
    )


def test_instant_ba60_first():
    result = ScenarioRunner().run(scenario(60, 10.0, path_selection="first"))
    assert (readable(result.metrics), result_digest(result)) == (
        (569, 554, {"no-capacity-path": 11, "split-balance": 4}),
        "4592ece2d4b498898bcb1ff919da8b26791a25bfaaef81d689b481c21d950f64",
    )


#: Depleted BA-60 (capacity_mu=1.0): about 80% of payments fail, so many
#: small-branch searches end with no path under the balance mask.
DEPLETED_BA60 = [
    (
        "random",
        (569, 120, {"no-capacity-path": 433, "split-balance": 16}),
        "13185278c6ec92c533c2419383698e5158887dcab68252058a57cfcc6f7a2fd4",
    ),
    (
        "first",
        (569, 119, {"no-capacity-path": 439, "split-balance": 11}),
        "0372e0fafc90298e8479bb3b4e970cda2409d4b06d6f479e5dabf8b24069d3fc",
    ),
]


@pytest.mark.parametrize(
    "path_selection, counts, expected",
    DEPLETED_BA60,
    ids=[sel for sel, _, _ in DEPLETED_BA60],
)
def test_instant_ba60_depleted(path_selection, counts, expected):
    result = ScenarioRunner().run(
        scenario(60, 10.0, capacity_mu=1.0, path_selection=path_selection)
    )
    assert (readable(result.metrics), result_digest(result)) == (
        counts, expected
    )


#: The two other circuit attacks on BA-60 in HTLC mode; the report is
#: hashed as in the slow-jamming case, the readable digest is the
#: attacked run's.
ATTACKS_BA60 = [
    (
        "liquidity-depletion",
        (297, 295, {"lock-contention": 2}),
        "827a75182e1bd79c69245836468c0f574fba9e11384ca0948dd9d827f8fade1f",
    ),
    (
        "fee-griefing",
        (297, 296, {"lock-contention": 1}),
        "0ae45abb5d8f6969879a7b1a9e81df23a3fdc089d80edb47717c63b70ad88a1a",
    ),
]


@pytest.mark.parametrize(
    "kind, counts, expected",
    ATTACKS_BA60,
    ids=[kind for kind, _, _ in ATTACKS_BA60],
)
def test_attack_ba60(kind, counts, expected):
    attack = {"kind": kind, "params": {"budget": 200.0}}
    result = ScenarioRunner().run(
        scenario(60, 5.0, attack=attack, payment_mode="htlc")
    )
    digest = content_hash(result.attack.to_dict())
    assert (readable(result.metrics), digest) == (counts, expected)


def test_instant_circle140():
    """A 140-node cycle: once a payment drains the short way round, later
    routes go the long way, far past the unfiltered hop distance."""
    document = {
        "seed": SEED,
        "topology": {"kind": "circle", "params": {"n": 140, "balance": 10.0}},
        "workload": ZIPF,
        "fee": FEE,
        "simulation": {"horizon": 10.0, "backend": "batched"},
    }
    result = ScenarioRunner().run(Scenario.from_dict(document))
    assert (readable(result.metrics), result_digest(result)) == (
        (1401, 941, {"no-capacity-path": 336, "split-balance": 124}),
        "618d4450f5dc0192e4c482e81599b8e1df8e3ed6654989aa41593e3e7a710ebf",
    )
