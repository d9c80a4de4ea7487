#!/usr/bin/env python
"""Walk through the paper's Figure 2 joining example step by step.

E joins a PCN with existing users A, B, C, D (a path A-B-C-D here):
E plans one monthly transaction to B; A makes nine monthly transactions
with D. E's budget covers two channels plus 19 spare coins. The paper's
answer: open channels to A and D with sizes 10 and 9.

The script scores every two-channel strategy, shows why {A, D} wins, and
verifies by simulation that the 10/9 funding carries the whole month.

Run:
    python examples/figure2_walkthrough.py
"""

from itertools import combinations

from repro import JoiningUserModel, ModelParameters
from repro.analysis import format_table
from repro.core import Action, Strategy
from repro.network import ChannelGraph, ConstantFee
from repro.simulation import BatchedSimulationEngine
from repro.simulation.events import PaymentEvent
from repro.transactions import EmpiricalDistribution


def main() -> None:
    graph = ChannelGraph()
    for u, v in [("A", "B"), ("B", "C"), ("C", "D")]:
        graph.add_channel(u, v, 20.0, 20.0)

    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.001,
        fee_avg=1.0,
        fee_out_avg=1.0,
        total_tx_rate=9.0,   # A -> D, nine per month
        user_tx_rate=1.0,    # E -> B, once per month
        zipf_s=1.0,
    )
    model = JoiningUserModel(
        graph,
        "E",
        params,
        distribution=EmpiricalDistribution(
            {"A": {"D": 1.0}, "B": {"A": 1.0}, "C": {"A": 1.0}, "D": {"A": 1.0}}
        ),
        own_probs={"B": 1.0},
        sender_rates={"A": 9.0, "B": 0.0, "C": 0.0, "D": 0.0},
    )

    rows = []
    for pair in combinations(["A", "B", "C", "D"], 2):
        strategy = Strategy([Action(p, 9.5) for p in pair])
        rows.append(
            {
                "channels": "+".join(pair),
                "E_rev": model.expected_revenue(strategy),
                "E_fees": model.expected_fees(strategy),
                "utility": model.utility(strategy),
            }
        )
    rows.sort(key=lambda r: r["utility"], reverse=True)
    print(format_table(rows, title="every two-channel strategy for E"))
    print()
    print(f"winner: {rows[0]['channels']}  (the paper's answer: A+D)")

    # simulate the month with the paper's 10 / 9 funding
    chosen = Strategy([Action("A", 10.0), Action("D", 9.0)])
    sim_graph = model.with_strategy(chosen)
    engine = BatchedSimulationEngine(sim_graph, fee=ConstantFee(0.0))
    engine.schedule(PaymentEvent(time=0.5, sender="E", receiver="B", amount=1.0))
    for i in range(9):
        engine.schedule(
            PaymentEvent(time=1.0 + i, sender="A", receiver="D", amount=1.0)
        )
    metrics = engine.run()
    print()
    print(
        f"simulated month with funding A:10 D:9 -> "
        f"{metrics.succeeded}/{metrics.attempted} payments succeeded"
    )
    ed = sim_graph.channels_between("E", "D")[0]
    print(
        f"E's balance toward D after the month: {ed.balance('E'):g} "
        "(exactly depleted — 9 was the minimum viable funding)"
    )


if __name__ == "__main__":
    main()
