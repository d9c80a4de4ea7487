"""Golden joining-user solves: pinned strategies and objective values.

Each case builds a :class:`~repro.core.utility.JoiningUserModel` on a
seeded BA snapshot and runs one of the four Section III optimisers. The
cases span ``routing_amount`` 0 and 1.5, ``peer_deposit`` ``"match"`` and
0.0, both hop conventions and both revenue modes; the n=160 case takes
the vectorised (CSR) branch of the model's distance tables, the others
the small-graph branch.

The chosen ``(peer, locked)`` list is pinned exactly. Objective and
utility values are compared to a relative 1e-12: evaluating the same
formula in a different summation order moves the last ulps. Budgets sit
clear of the float floor edges of ``budget / (C + lock)``. Regenerate an
expectation only for an intentional behaviour change, and record the
change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.core.algorithms import (
    brute_force,
    continuous_local_search,
    exhaustive_discrete,
    greedy_fixed_funds,
)
from repro.core.utility import JoiningUserModel
from repro.params import ModelParameters
from repro.snapshots import barabasi_albert_snapshot

ALGORITHMS = {
    "greedy": greedy_fixed_funds,
    "exhaustive": exhaustive_discrete,
    "continuous": continuous_local_search,
    "bruteforce": brute_force,
}

#: (case id, n, seed, model keyword arguments, algorithm, its arguments)
CASES = [
    ("greedy-ba30", 30, 1, {}, "greedy", {"budget": 6.5, "lock": 1.0}),
    (
        "greedy-ba24-routing",
        24, 2, {"routing_amount": 1.5},
        "greedy", {"budget": 9.5, "lock": 2.0},
    ),
    (
        "greedy-ba20-deposit0",
        20, 3, {"peer_deposit": 0.0},
        "greedy", {"budget": 7.3, "lock": 0.5},
    ),
    (
        "greedy-ba26-intermediaries",
        26, 4, {"hop_convention": "intermediaries"},
        "greedy", {"budget": 8.7, "lock": 1.0},
    ),
    (
        "greedy-ba40-fixed-rate",
        40, 5, {"revenue_mode": "fixed-rate", "routing_amount": 1.5},
        "greedy", {"budget": 10.5, "lock": 2.0},
    ),
    (
        "greedy-ba160-fixed-rate",
        160, 6, {"revenue_mode": "fixed-rate"},
        "greedy", {"budget": 4.7, "lock": 1.0},
    ),
    (
        "exhaustive-ba16-routing",
        16, 7, {"routing_amount": 1.5},
        "exhaustive", {"budget": 4.6, "granularity": 1.5},
    ),
    (
        "exhaustive-ba12-routing-deposit0",
        12, 8, {"routing_amount": 1.5, "peer_deposit": 0.0},
        "exhaustive", {"budget": 4.6, "granularity": 1.5},
    ),
    (
        "continuous-ba20-routing",
        20, 9, {"routing_amount": 1.5},
        "continuous", {"budget": 5.5},
    ),
    (
        "bruteforce-ba12-intermediaries",
        12, 10, {"hop_convention": "intermediaries"},
        "bruteforce", {"budget": 6.5, "lock": 1.0, "objective": "utility"},
    ),
]

#: case id -> (channels, objective value, utility)
EXPECTED = {
    "greedy-ba30": (
        [("n14", 1.0), ("n2", 1.0), ("n21", 1.0), ("n29", 1.0)],
        1.7498400865255423,
        -0.2901599134744577,
    ),
    "greedy-ba24-routing": (
        [("n0", 2.0), ("n13", 2.0), ("n23", 2.0)],
        0.9551162555267769,
        -0.6048837444732231,
    ),
    "greedy-ba20-deposit0": (
        [
            ("n1", 0.5), ("n10", 0.5), ("n11", 0.5), ("n13", 0.5),
            ("n15", 0.5), ("n17", 0.5), ("n8", 0.5),
        ],
        3.5529093132856606,
        0.01790931328566092,
    ),
    "greedy-ba26-intermediaries": (
        [
            ("n14", 1.0), ("n19", 1.0), ("n20", 1.0), ("n3", 1.0),
            ("n5", 1.0),
        ],
        2.924836634586658,
        0.37483663458665806,
    ),
    "greedy-ba40-fixed-rate": (
        [("n0", 2.0), ("n13", 2.0), ("n3", 2.0), ("n7", 2.0)],
        13.762307012591625,
        11.682307012591625,
    ),
    "greedy-ba160-fixed-rate": (
        [("n0", 1.0), ("n18", 1.0), ("n3", 1.0)],
        37.180716556887056,
        35.650716556887055,
    ),
    "exhaustive-ba16-routing": (
        [("n0", 1.5), ("n14", 1.5)],
        0.16333141010749747,
        -0.8666685898925026,
    ),
    "exhaustive-ba12-routing-deposit0": (
        [("n0", 1.5), ("n3", 1.5)],
        -0.3230611129840387,
        -1.3530611129840389,
    ),
    "continuous-ba20-routing": (
        [("n0", 1.5), ("n18", 1.5)],
        0.13662103258030367,
        -0.36337896741969633,
    ),
    "bruteforce-ba12-intermediaries": (
        [("n0", 1.0), ("n10", 1.0)],
        -0.6281052658765848,
        -0.6281052658765848,
    ),
}


def solve(n, seed, model_kwargs, algorithm, algorithm_kwargs):
    graph = barabasi_albert_snapshot(n, capacity_mu=3.0, seed=seed)
    params = ModelParameters(
        onchain_cost=0.5, fee_avg=0.3, total_tx_rate=5.0 * n, user_tx_rate=2.0
    )
    model = JoiningUserModel(graph, "joiner", params, **model_kwargs)
    result = ALGORITHMS[algorithm](model, **algorithm_kwargs)
    channels = [(action.peer, action.locked) for action in result.strategy]
    return channels, result.objective_value, result.utility


@pytest.mark.parametrize(
    "case_id, n, seed, model_kwargs, algorithm, algorithm_kwargs",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_join_case(case_id, n, seed, model_kwargs, algorithm, algorithm_kwargs):
    channels, objective, utility = solve(
        n, seed, model_kwargs, algorithm, algorithm_kwargs
    )
    expected_channels, expected_objective, expected_utility = EXPECTED[case_id]
    assert channels == expected_channels
    assert objective == pytest.approx(expected_objective, rel=1e-12)
    assert utility == pytest.approx(expected_utility, rel=1e-12)
