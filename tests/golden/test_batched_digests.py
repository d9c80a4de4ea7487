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

The whole result document is hashed, channel ids included: the graph
numbers its own channels, so the ids do not depend on what else the
process ran. Regenerate a digest only for an intentional behaviour change, and
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


INSTANT_BA200 = [
    (
        "stream",
        "random",
        "0fa57bf0e4c150398182b937fef4d8a1cc012fcc24e226eed277217e203edfda",
    ),
    (
        "stream",
        "first",
        "d43e7951243602f8ebff3e856a78284972f4c5a3a4ab51cc468dbf132f25e543",
    ),
    (
        "payment",
        "random",
        "5f16f7b0cbe5398acfa713ae2342cb9cb739b46a625d3802ab3c367347ed0283",
    ),
    (
        "payment",
        "first",
        "80d93333ad8b09f71b38797fba5adce791d5b7b82c459a69e9c2a32c6150aeb2",
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
    assert content_hash(result.to_dict()) == expected


#: Depleted BA-200 (capacity_mu=1.0): about 60% of payments fail, most
#: with ``no-capacity-path``, so searches often end with no path or meet
#: on a frontier the balance mask cuts.
DEPLETED_BA200 = [
    ("random", "5e467ba8a009bee9ea4ed0075041c186a3df279762b72caa29f37afbad1eb5ef"),
    ("first", "c20a34bb3d7b1d20220cd26e6bd199b3c60463367c7deb60509a24f6fe1fcb74"),
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
    assert content_hash(result.to_dict()) == expected


def test_instant_ba60():
    result = ScenarioRunner().run(scenario(60, 10.0))
    assert content_hash(result.to_dict()) == (
        "e04de791e224b49124802c8bf00d538a2795dfd50ca8900a22f9d7e482c59fbe"
    )


def test_htlc_ba60():
    result = ScenarioRunner().run(
        scenario(60, 10.0, payment_mode="htlc", htlc_hold_mean=0.5)
    )
    assert content_hash(result.to_dict()) == (
        "448e69069f471f06f9b5467372b842aca122a29b1bf872f1b44a77bb5d018c71"
    )


def test_htlc_ba200():
    result = ScenarioRunner().run(
        scenario(200, 3.0, payment_mode="htlc", htlc_hold_mean=0.5)
    )
    assert content_hash(result.to_dict()) == (
        "f2bf3754b9a1a5f24aaaa882db73bafc451de2c8e226b0fdfa7bc845a8d79411"
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
    assert (readable(result.metrics), content_hash(result.to_dict())) == (
        (569, 554, {"no-capacity-path": 11, "split-balance": 4}),
        "c974c64b2f2033a6f6b29e8948663b8bab44d1f0a159ac31006fb800591d7ac0",
    )


#: Depleted BA-60 (capacity_mu=1.0): about 80% of payments fail, so many
#: small-branch searches end with no path under the balance mask.
DEPLETED_BA60 = [
    (
        "random",
        (569, 120, {"no-capacity-path": 433, "split-balance": 16}),
        "82dabfc49842c03ed67fa274c5d3ee1a40fdc22ba1b2cdef20a3779934e66c88",
    ),
    (
        "first",
        (569, 119, {"no-capacity-path": 439, "split-balance": 11}),
        "7500b07cecb1efec8d74ed2fc36e21ce9c53e2d72be4d0533d9af4a131fbc4b3",
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
    assert (readable(result.metrics), content_hash(result.to_dict())) == (
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
    assert (readable(result.metrics), content_hash(result.to_dict())) == (
        (1401, 941, {"no-capacity-path": 336, "split-balance": 124}),
        "fa44449ae5ba832d7dba220757a3cef49d6610a1bfa1c63a34cf76369eb8e6cf",
    )
