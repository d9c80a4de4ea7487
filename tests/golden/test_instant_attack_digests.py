"""Golden instant-mode attacks: the queued instant-payment path, pinned.

An attack in the default ``payment_mode="instant"`` runs the honest
trace through the event queue twice, once as the baseline and once next
to the attacker. Each case pins the hashes of the baseline metrics, the
attacked metrics and the attack report, each next to a readable digest
(attempted and succeeded payments and the failure-reason counts). BA-60
takes the small-graph route search and BA-200 the large-graph one.

The report is hashed without its two ``*_total_revenue`` fields: they
sum the per-node revenue dict in its insertion order, which is not a
simulation result. Every per-node value is pinned through the metrics
documents, whose ``to_dict`` sorts them.

A slow-jamming case with ``slot_cap=2`` pins that held HTLCs block
instant payments through their slots.

Two more tests: the baseline's ``total_revenue`` is the one
``run-scenario`` reports for the same scenario without the attack, and
one queued instant run split with ``run(until=...)`` adds up to one
``run()``, bit for bit.

Regenerate a digest only for an intentional behaviour change, and record
the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.attacks.runner import AttackRunner
from repro.scenarios.factory import build_simulation_engine
from repro.scenarios.runner import ScenarioRunner, build_topology, build_workload
from repro.scenarios.specs import Scenario
from repro.service.hashing import content_hash

SEED = 5
HORIZON = 5.0
FEE = {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}


def scenario(
    n: int, attack=None, horizon: float = HORIZON, **attack_params
) -> Scenario:
    document = {
        "seed": SEED,
        "topology": {"kind": "ba", "params": {"n": n, "capacity_mu": 3.0}},
        "workload": {"kind": "poisson", "params": {"zipf_s": 1.0}},
        "fee": FEE,
        "simulation": {"horizon": horizon},
    }
    if attack is not None:
        document["attack"] = {
            "kind": attack, "params": {"budget": 200.0, **attack_params}
        }
    return Scenario.from_dict(document)


def readable(metrics):
    """``(attempted, succeeded, failure reasons)`` of one run's metrics."""
    return (
        metrics.attempted,
        metrics.succeeded,
        dict(sorted(metrics.failure_reasons.items())),
    )


def report_digest(report) -> str:
    document = report.to_dict()
    del document["baseline_total_revenue"]
    del document["attacked_total_revenue"]
    return content_hash(document)


#: ``(attack, n) -> {document: (readable digest, hash)}``; the report's
#: readable digest is the attacked run's.
EXPECTED = {
    ("slow-jamming", 60): {
        "baseline": (
            (297, 295, {"split-balance": 2}),
            "9994ba49e632adae7febf56ab7f07d8df5441cd50d3f4e57347cde15bffba530",
        ),
        "attacked": (
            (297, 295, {"split-balance": 2}),
            "9994ba49e632adae7febf56ab7f07d8df5441cd50d3f4e57347cde15bffba530",
        ),
        "report": (
            (297, 295, {"split-balance": 2}),
            "a354d133d9f4bee7aecbafbd97dbeb95eeb21c67fcc3590059a8caabd7c5a70f",
        ),
    },
    ("liquidity-depletion", 200): {
        "baseline": (
            (968, 950, {"no-capacity-path": 11, "split-balance": 7}),
            "2e73c8125842873a58ec763104527a3ff871f322ed5113bcff5a81c75c307afc",
        ),
        "attacked": (
            (968, 945, {"no-capacity-path": 11, "split-balance": 12}),
            "0fdfe1bbca647b66a678e42f3e53472bb47b953cd97b6d9cd3d73876c94d8141",
        ),
        "report": (
            (968, 945, {"no-capacity-path": 11, "split-balance": 12}),
            "89998589b1467c18de48d46cf89514da0315cfcfc98f3a2e05078dcf3343e9d0",
        ),
    },
}


@pytest.mark.parametrize(
    "attack, n", sorted(EXPECTED), ids=[f"{a}-ba{n}" for a, n in sorted(EXPECTED)]
)
def test_instant_attack(attack, n):
    outcome = AttackRunner().run(scenario(n, attack))
    assert digests(outcome) == EXPECTED[(attack, n)]


def digests(outcome):
    """``{document: (readable digest, hash)}`` of one attack outcome."""
    return {
        "baseline": (
            readable(outcome.baseline_metrics),
            content_hash(outcome.baseline_metrics.to_dict()),
        ),
        "attacked": (
            readable(outcome.attacked_metrics),
            content_hash(outcome.attacked_metrics.to_dict()),
        ),
        "report": (
            readable(outcome.attacked_metrics),
            report_digest(outcome.report),
        ),
    }


#: Slow-jamming on BA-60 with two HTLC slots per channel. The attacker's
#: held HTLCs fill the victim's slots, and an instant payment that needs
#: one of those directions fails with ``no-htlc-slots``: 44 honest
#: payments, a success-rate degradation of 0.1448.
SLOT_CAP_2 = {
    "baseline": (
        (297, 295, {"split-balance": 2}),
        "9994ba49e632adae7febf56ab7f07d8df5441cd50d3f4e57347cde15bffba530",
    ),
    "attacked": (
        (297, 252, {"no-htlc-slots": 44, "split-balance": 1}),
        "c7056321db4c12eea31d3911988ecc4a3616f7e11093af37735a682220516286",
    ),
    "report": (
        (297, 252, {"no-htlc-slots": 44, "split-balance": 1}),
        "a6b76ef916ad9c9d47e75dbfb118e35858df245b17907b239471ee4162a9019b",
    ),
}


def test_instant_slow_jamming_blocks_on_slots():
    outcome = AttackRunner().run(scenario(60, "slow-jamming", slot_cap=2))
    assert digests(outcome) == SLOT_CAP_2
    assert outcome.report.success_rate_degradation == pytest.approx(
        0.1448, abs=1e-4
    )


@pytest.mark.parametrize("attack, n", sorted(EXPECTED))
def test_baseline_total_matches_run_scenario(attack, n):
    report = AttackRunner().run(scenario(n, attack)).report
    plain = ScenarioRunner().run(scenario(n))
    assert report.baseline_total_revenue == plain.row["total_revenue"]


def queued_engine(spec: Scenario):
    graph = build_topology(spec.topology, seed=spec.seed)
    trace = list(build_workload(spec, graph).generate(spec.simulation.horizon))
    engine = build_simulation_engine(spec, graph)
    engine.schedule_transactions(trace)
    return engine, graph


def balances(graph):
    return sorted(
        (str(c.u), str(c.v), c.balance(c.u), c.balance(c.v))
        for c in graph.channels
    )


def test_split_queued_run_equals_one_run():
    spec = scenario(60, horizon=10.0)
    whole, whole_graph = queued_engine(spec)
    expected = whole.run().to_dict()
    split, split_graph = queued_engine(spec)
    for until in (2.5, 5.0, 7.5):
        split.run(until=until)
    got = split.run().to_dict()
    assert got == expected
    assert sum(split.metrics.revenue.values()) == sum(
        whole.metrics.revenue.values()
    )
    assert balances(split_graph) == balances(whole_graph)
