"""Golden Poisson traces: pinned digests of ``PoissonWorkload`` output.

Each case generates the trace of one seeded BA-200 graph and hashes its
``(time, sender, receiver, amount)`` columns. Endpoints are hashed as
indices into the graph's node order; ``-1`` marks a label outside it and
``-2`` a payment to oneself. A change to how the
generator consumes its RNG stream — the order of draws, the sampler, the
float operations that build a receiver row — moves a digest. The payment
count is pinned too, so a failure shows whether arrivals or only the
marks changed.

Regenerate a digest only for an intentional change to the traffic model,
and record the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.workload import build_poisson_workload

GRAPH_SEED = 7
WORKLOAD_SEED = 11
HORIZON = 5.0
TRUNCATED = {"kind": "truncated-exponential", "scale": 0.5, "high": 5.0}

CASES = [
    (
        "zipf",
        None,
        998,
        "9749d218baa0a70dbdc3e8d7cbd0498db0409b49b4eafbec7e7fd6ad1ac50a69",
    ),
    (
        "zipf",
        TRUNCATED,
        1029,
        "1a4a340c6c5dd8be693acccfe23ab75eb5bcf724b50c2380b43dbb41f93bb197",
    ),
    (
        "uniform",
        None,
        998,
        "ffebad82de9d7045a93b857771a762a4378161a9204a7a2f3ac4f90ae2e71f8f",
    ),
    (
        "uniform",
        TRUNCATED,
        1029,
        "e0a05f3f8e3bddfec8e7b713a6303f671db2c81c25cc787ec9efa6f15d1fffe8",
    ),
]


@pytest.fixture(scope="module")
def ba200():
    return barabasi_albert_snapshot(200, seed=GRAPH_SEED)


def endpoints(transactions, nodes):
    """``(senders, receivers)`` as node indices, with the markers."""
    index = {node: i for i, node in enumerate(nodes)}
    senders, receivers = [], []
    for tx in transactions:
        if tx.sender == tx.receiver:
            senders.append(-2)
            receivers.append(-2)
        else:
            senders.append(index.get(tx.sender, -1))
            receivers.append(index.get(tx.receiver, -1))
    return senders, receivers


def trace_digest(transactions, nodes) -> str:
    senders, receivers = endpoints(transactions, nodes)
    digest = hashlib.sha256()
    for column, dtype in (
        ([tx.time for tx in transactions], "<f8"),
        (senders, "<i8"),
        (receivers, "<i8"),
        ([tx.amount for tx in transactions], "<f8"),
    ):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "distribution, sizes, count, expected",
    CASES,
    ids=["zipf-fixed", "zipf-truncexp", "uniform-fixed", "uniform-truncexp"],
)
def test_trace_digest(ba200, distribution, sizes, count, expected):
    workload = build_poisson_workload(
        ba200, seed=WORKLOAD_SEED, distribution=distribution, sizes=sizes
    )
    trace = list(workload.generate(HORIZON))
    assert len(trace) == count
    assert trace_digest(trace, ba200.nodes) == expected
