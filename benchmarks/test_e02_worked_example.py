"""E2 — Figure 2: the worked joining example.

E joins {A, B, C, D} (a path A-B-C-D): E sends 1 tx/month to B, A sends
9 tx/month to D, budget covers two channels plus 19 spare coins. The paper
says the optimum connects to A and D with sizes 10 and 9. We regenerate
the full two-channel utility table and verify by simulation that the
10/9 funding carries the month's payments.
"""

from itertools import combinations

from repro.analysis.tables import format_table
from repro.core.strategy import Action, Strategy
from repro.core.utility import JoiningUserModel
from repro.network.fees import ConstantFee
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.simulation.events import PaymentEvent
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.distributions import EmpiricalDistribution


def build_world():
    graph = ChannelGraph()
    for u, v in [("A", "B"), ("B", "C"), ("C", "D")]:
        graph.add_channel(u, v, 20.0, 20.0)
    params = ModelParameters(
        onchain_cost=1.0,
        opportunity_rate=0.001,
        fee_avg=1.0,
        fee_out_avg=1.0,
        total_tx_rate=9.0,
        user_tx_rate=1.0,
        zipf_s=1.0,
    )
    distribution = EmpiricalDistribution(
        {"A": {"D": 1.0}, "B": {"A": 1.0}, "C": {"A": 1.0}, "D": {"A": 1.0}}
    )
    model = JoiningUserModel(
        graph,
        "E",
        params,
        distribution=distribution,
        own_probs={"B": 1.0},
        sender_rates={"A": 9.0, "B": 0.0, "C": 0.0, "D": 0.0},
    )
    return graph, model


def test_e02_optimal_pair_is_a_d(benchmark, emit_table):
    _graph, model = build_world()
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
    emit_table(
        format_table(rows, title="E2 / Figure 2 — two-channel strategies for E")
    )
    assert rows[0]["channels"] in ("A+D", "D+A")

    benchmark(
        lambda: model.utility(Strategy([Action("A", 10.0), Action("D", 9.0)]))
    )


def test_e02_simulated_month_with_10_9_funding(emit_table, benchmark):
    _graph, model = build_world()

    def run_month():
        sim_graph = model.with_strategy(
            Strategy([Action("A", 10.0), Action("D", 9.0)])
        )
        engine = BatchedSimulationEngine(sim_graph, fee=ConstantFee(0.0))
        engine.schedule(
            PaymentEvent(time=0.5, sender="E", receiver="B", amount=1.0)
        )
        for i in range(9):
            engine.schedule(
                PaymentEvent(time=1.0 + i, sender="A", receiver="D", amount=1.0)
            )
        return engine.run()

    metrics = benchmark(run_month)
    emit_table(
        format_table(
            [
                {
                    "funding": "A:10 D:9",
                    "attempted": metrics.attempted,
                    "succeeded": metrics.succeeded,
                    "failed": metrics.failed,
                }
            ],
            title="E2 — simulated month under the paper's funding",
        )
    )
    assert metrics.succeeded == 10
    assert metrics.failed == 0
