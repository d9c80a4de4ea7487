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
        "826a5f822c53f78725e49006ba9e1cc7565a517e3f988d17efde0d7ff382a379",
    ),
    (
        "stream",
        "first",
        "22ffb2e86f424e7be51db20d4d5e54fae8ca0c7b04266eb048986b962ac50ebd",
    ),
    (
        "payment",
        "random",
        "b41798a749bddc4fe9de63cfe06ce5f3b8998f30cb72afef12c51e20c4b2e765",
    ),
    (
        "payment",
        "first",
        "bb8a85bc7fb9799374e115f62885c4aad08a75ef4dbf5305dd750cc748ded1e6",
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
    ("random", "4a82aaa54c2e903d0822cbacf88f00f656aba94e08b454938bd144b3ccf76100"),
    ("first", "6197514dea75d1fe5c816d281b6bbc31e6023bff0c2dc37be5c85daf8d77636e"),
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
        "c56d95c2571807fe67623d38d7bb3f96e53941152df2072ec84860efc5dce44c"
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
        "ee6b199917302bac620c0b20b3e99ba890438fa02186db4e9e5bb4a3ce99ae40",
    )


#: Depleted BA-60 (capacity_mu=1.0): about 80% of payments fail, so many
#: small-branch searches end with no path under the balance mask.
DEPLETED_BA60 = [
    (
        "random",
        (569, 120, {"no-capacity-path": 433, "split-balance": 16}),
        "f88b725a94126801a8b82be0a733c32c11f226d0da6a1dd983a448f21dae11e2",
    ),
    (
        "first",
        (569, 119, {"no-capacity-path": 439, "split-balance": 11}),
        "6bd4c613d66c634a59195d682a477e6de0c4f135ff454cdc4207ec361917ef93",
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
        "84abdece4c8b77783b20b244b4f00a0ee18ac4c4d437bab12eebf6225b42b0ec",
    )
