"""E1 — Figure 1: channel balance semantics.

Replays the paper's Figure 1 sequence (balances (10,7) -> (5,12) -> (0,17),
then a failed size-6 payment from u) and benchmarks raw channel payment
throughput.
"""

from repro.analysis.tables import format_table
from repro.errors import InsufficientBalance
from repro.network.channel import Channel


def _figure1_rows():
    channel = Channel("u", "v", 10.0, 7.0, channel_id="c")
    rows = [
        {
            "step": "initial",
            "b_u": channel.balance("u"),
            "b_v": channel.balance("v"),
            "outcome": "-",
        }
    ]
    for step, (sender, amount) in enumerate(
        [("u", 5.0), ("u", 5.0), ("u", 6.0)], start=1
    ):
        try:
            channel.send(sender, amount)
            outcome = "ok"
        except InsufficientBalance:
            outcome = "FAILED (insufficient balance)"
        rows.append(
            {
                "step": f"{sender} pays {amount:g}",
                "b_u": channel.balance("u"),
                "b_v": channel.balance("v"),
                "outcome": outcome,
            }
        )
    return rows, channel


def test_e01_figure1_sequence(benchmark, emit_table):
    rows, channel = _figure1_rows()
    emit_table(format_table(rows, title="E1 / Figure 1 — channel payments"))
    # shape assertions: last payment fails, capacity invariant
    assert rows[-1]["outcome"].startswith("FAILED")
    assert channel.capacity == 17.0
    assert channel.balance("u") == 0.0

    def throughput():
        c = Channel("a", "b", 1e9, 1e9, channel_id="c")
        for _ in range(1000):
            c.send("a", 1.0)
            c.send("b", 1.0)
        return c

    benchmark(throughput)
