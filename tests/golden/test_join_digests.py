"""Golden joining-user solves: pinned strategies and objective values.

Each case builds a :class:`~repro.core.utility.JoiningUserModel` on a
seeded BA snapshot and runs one of the four Section III optimisers. The
cases span ``routing_amount`` 0 and 1.5, ``peer_deposit`` ``"match"`` and
0.0, both hop conventions and both revenue modes; the two n=160 cases
take the vectorised (CSR) branch of the model's distance tables, the
others the small-graph branch. Greedy also runs under the ``"utility"`` and
``"benefit"`` objectives, and once with action reuse over an Ω holding
duplicate actions, so one step scores parallel channels and equal
candidates.

The chosen ``(peer, locked)`` list is pinned exactly, and so are the
optimiser's evaluation count and the model's revenue and fee counters.
Objective and utility values are compared to a relative 1e-12:
evaluating the same formula in a different summation order moves the
last ulps. Budgets sit clear of the float floor edges of
``budget / (C + lock)``. Regenerate an expectation only for an
intentional behaviour change, and record the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.core.algorithms import (
    brute_force,
    continuous_local_search,
    exhaustive_discrete,
    greedy_fixed_funds,
)
from repro.core.algorithms.greedy import greedy_over_actions
from repro.core.objective import ObjectiveEvaluator
from repro.core.strategy import ActionSpace
from repro.core.utility import JoiningUserModel
from repro.params import ModelParameters
from repro.snapshots import barabasi_albert_snapshot



def greedy_with_reuse(model, locks, max_channels, repeat):
    """Algorithm 1's loop with ``allow_reuse=True`` over Ω = one action
    per (peer, lock), plus a second copy of the first ``repeat`` actions:
    picks may stack parallel channels on one peer, and the duplicated
    actions give equal candidates within one greedy step."""
    omega = [
        action
        for lock in locks
        for action in ActionSpace.fixed_lock(model.base_graph, model.new_user, lock)
    ]
    omega += omega[:repeat]
    evaluator = ObjectiveEvaluator(model)
    return greedy_over_actions(evaluator, omega, max_channels, allow_reuse=True)


ALGORITHMS = {
    "greedy": greedy_fixed_funds,
    "greedy-reuse": greedy_with_reuse,
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
        "greedy-ba160",
        160, 11, {},
        "greedy", {"budget": 4.7, "lock": 1.0},
    ),
    (
        "greedy-ba30-utility",
        30, 12, {},
        "greedy", {"budget": 6.5, "lock": 1.0, "objective": "utility"},
    ),
    (
        "greedy-ba24-benefit-routing",
        24, 13, {"routing_amount": 1.5},
        "greedy", {"budget": 9.5, "lock": 2.0, "objective": "benefit"},
    ),
    (
        "greedy-reuse-ba20-routing",
        20, 14, {"routing_amount": 1.5},
        "greedy-reuse", {"locks": (1.0, 2.0), "max_channels": 4, "repeat": 8},
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
    "greedy-ba160": (
        [("n0", 1.0), ("n10", 1.0), ("n63", 1.0)],
        3.3311107284435835,
        1.8011107284435834,
    ),
    "greedy-ba30-utility": (
        [("n0", 1.0), ("n22", 1.0), ("n25", 1.0), ("n29", 1.0)],
        0.2811134373441764,
        0.2811134373441764,
    ),
    "greedy-ba24-benefit-routing": (
        [("n1", 2.0), ("n15", 2.0), ("n3", 2.0)],
        0.03088265738254381,
        -0.4691173426174562,
    ),
    "greedy-reuse-ba20-routing": (
        [("n0", 2.0), ("n10", 2.0), ("n16", 2.0), ("n17", 2.0)],
        2.4244691584354596,
        0.34446915843545955,
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

#: case id -> (optimiser evaluations, model revenue evaluations, model fee
#: evaluations). A strategy with unreachable receivers scores -inf on
#: its fees alone, so it adds no revenue evaluation; the final ``utility``
#: of the result adds one of each.
COUNTS = {
    "greedy-ba30": (115, 115, 116),
    "greedy-ba24-routing": (70, 70, 71),
    "greedy-ba20-deposit0": (120, 120, 121),
    "greedy-ba26-intermediaries": (121, 121, 122),
    "greedy-ba40-fixed-rate": (155, 155, 156),
    "greedy-ba160-fixed-rate": (478, 478, 479),
    "greedy-ba160": (478, 478, 479),
    "greedy-ba30-utility": (115, 115, 116),
    "greedy-ba24-benefit-routing": (70, 70, 71),
    "greedy-reuse-ba20-routing": (161, 141, 162),
    "exhaustive-ba16-routing": (107, 91, 108),
    "exhaustive-ba12-routing-deposit0": (79, 67, 80),
    "continuous-ba20-routing": (638, 538, 640),
    "bruteforce-ba12-intermediaries": (794, 794, 795),
}


def solve(n, seed, model_kwargs, algorithm, algorithm_kwargs):
    graph = barabasi_albert_snapshot(n, capacity_mu=3.0, seed=seed)
    params = ModelParameters(
        onchain_cost=0.5, fee_avg=0.3, total_tx_rate=5.0 * n, user_tx_rate=2.0
    )
    model = JoiningUserModel(graph, "joiner", params, **model_kwargs)
    result = ALGORITHMS[algorithm](model, **algorithm_kwargs)
    channels = [(action.peer, action.locked) for action in result.strategy]
    counts = (
        result.evaluations,
        model.stats["revenue_evals"],
        model.stats["fee_evals"],
    )
    return channels, result.objective_value, result.utility, counts


@pytest.mark.parametrize(
    "case_id, n, seed, model_kwargs, algorithm, algorithm_kwargs",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_join_case(case_id, n, seed, model_kwargs, algorithm, algorithm_kwargs):
    channels, objective, utility, counts = solve(
        n, seed, model_kwargs, algorithm, algorithm_kwargs
    )
    expected_channels, expected_objective, expected_utility = EXPECTED[case_id]
    assert channels == expected_channels
    assert objective == pytest.approx(expected_objective, rel=1e-12)
    assert utility == pytest.approx(expected_utility, rel=1e-12)
    assert counts == COUNTS[case_id]
