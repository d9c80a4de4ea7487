"""Golden empirical evolution runs: growth, churn and sampled best response.

Two seeded BA-20 runs of three epochs each, scored by the empirical
utility provider (every candidate graph replays the epoch's traffic)
over the ``"sampled"`` deviation family:

* ``poisson-random-attach-uniform-churn``: Poisson arrivals that join by
  random attachment, and uniform churn, which realises closure costs;
* ``fixed-greedy``: one greedy join per epoch and no churn.

Each run is hashed as a whole result document, next to a readable
``(final_topology, total_moves, total_arrivals, total_departures)``.
The final Nash check is off: it scores the graph analytically, which
the analytic run in ``test_section4_digests.py`` already pins.

Regenerate an expectation only for an intentional behaviour change,
and record the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.obs import NULL_SESSION
from repro.scenarios import EvolutionSpec, Scenario, ScenarioRunner, TopologySpec
from repro.scenarios.specs import ChurnSpec, GrowthSpec
from repro.service.hashing import content_hash

#: case id -> (growth, churn, expected readable row, expected digest)
CASES = {
    "poisson-random-attach-uniform-churn": (
        GrowthSpec("poisson", {
            "rate": 1.5,
            "algorithm": "random-attach",
            "params": {"k": 2, "lock": 1.0},
        }),
        ChurnSpec("uniform", {"rate": 0.1}),
        ("other", 29, 3, 7),
        "0e96f4e01d4f7ac25e6efae77082000bc6bb2e20518fb1b0d56bde65d94b62e0",
    ),
    "fixed-greedy": (
        GrowthSpec("fixed", {
            "per_epoch": 1,
            "algorithm": "greedy",
            "params": {"budget": 4.0, "lock": 1.0},
        }),
        None,
        ("other", 38, 1, 0),
        "310a8030956d5237e8cfeb4c95771986fe6de095acc1cd7e70003ca2b21aaa5f",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_empirical_evolution_digest(case):
    growth, churn, readable, digest = CASES[case]
    scenario = Scenario(
        topology=TopologySpec("ba", {"n": 20, "capacity_mu": 2.0}),
        evolution=EvolutionSpec(
            epochs=3,
            growth=growth,
            churn=churn,
            utility="empirical",
            mode="sampled",
            traffic_horizon=3.0,
            final_nash_check=False,
        ),
        name="golden-evo",
        seed=7,
    )
    document = ScenarioRunner(obs=NULL_SESSION).run(scenario).to_dict()
    row = document["row"]
    assert (
        row["final_topology"],
        row["total_moves"],
        row["total_arrivals"],
        row["total_departures"],
    ) == readable
    assert content_hash(document) == digest
