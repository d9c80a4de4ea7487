"""Golden Section IV results: Nash verdicts, an evolution run, rate tables.

Three groups of cases, all seeded:

* ``check_nash`` and ``best_response`` of the analytic
  :class:`~repro.equilibrium.node_utility.NetworkGameModel` on the star,
  path and circle of Section IV and on a BA-14 snapshot. Each node's best
  deviation is pinned exactly, and its base and best utilities as
  ``float.hex``, so a last-ulp move in the revenue or fee sums fails.
* One analytic evolution run (BA-10, two epochs, final Nash check),
  hashed as a whole result document.
* ``edge_rates`` and ``intermediary_traffic`` (Eq. 2 / Eq. 3) on a
  reduced BA-40 view, which takes the dense betweenness pass, and a
  reduced BA-170 view, which takes the per-source CSR pass, with
  per-sender rates. Each table is hashed as sorted ``float.hex`` rows.

Regenerate an expectation only for an intentional behaviour change,
and record the change in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.equilibrium.nash import best_response, check_nash
from repro.equilibrium.node_utility import NetworkGameModel
from repro.equilibrium.topologies import circle, path, star
from repro.obs import NULL_SESSION
from repro.scenarios import EvolutionSpec, Scenario, ScenarioRunner, TopologySpec
from repro.service.hashing import content_hash
from repro.snapshots import barabasi_albert_snapshot
from repro.transactions.distributions import UniformDistribution
from repro.transactions.rates import edge_rates, intermediary_traffic
from repro.transactions.zipf import ModifiedZipf


def response_row(response):
    """``(node, (removed, added) or None, base hex, best hex)``."""
    deviation = response.best_deviation
    move = None if deviation is None else (
        tuple(sorted(map(str, deviation.remove))),
        tuple(sorted(map(str, deviation.add))),
    )
    return (
        str(response.node),
        move,
        response.base_utility.hex(),
        response.best_utility.hex(),
    )


def ba14():
    return barabasi_albert_snapshot(14, seed=4)


#: case id -> (graph factory, model keyword arguments, check_nash keyword
#: arguments, expected rows in report order)
NASH_CASES = {
    "star5": (
        lambda: star(5),
        {"a": 1.0, "b": 1.0, "edge_cost": 1.0},
        {"seed": 3},
        [
            (
                "center", None,
                "-0x1.184abe9939ed5p+1", "-0x1.184abe9939ed5p+1",
            ),
            (
                "v000", None,
                "-0x1.8fe21a291c078p+0", "-0x1.8fe21a291c078p+0",
            ),
            (
                "v001", None,
                "-0x1.8fe21a291c078p+0", "-0x1.8fe21a291c078p+0",
            ),
            (
                "v002", None,
                "-0x1.8fe21a291c078p+0", "-0x1.8fe21a291c078p+0",
            ),
            (
                "v003", None,
                "-0x1.8fe21a291c078p+0", "-0x1.8fe21a291c078p+0",
            ),
            (
                "v004", None,
                "-0x1.8fe21a291c078p+0", "-0x1.8fe21a291c078p+0",
            ),
        ],
    ),
    "star5-cheap": (
        lambda: star(5),
        {"a": 2.0, "b": 1.0, "edge_cost": 0.3},
        {"seed": 3},
        [
            (
                "center", None,
                "0x1.4f6a82cd8c256p+0", "0x1.4f6a82cd8c256p+0",
            ),
            (
                "v000", ((), ("v001", "v002", "v003", "v004")),
                "-0x1.6c91011f04dbcp+0", "-0x1.a0b3630957d33p-1",
            ),
            (
                "v001", ((), ("v000", "v002", "v003", "v004")),
                "-0x1.6c91011f04dbcp+0", "-0x1.a0b3630957d33p-1",
            ),
            (
                "v002", ((), ("v000", "v001", "v003", "v004")),
                "-0x1.6c91011f04dbcp+0", "-0x1.a0b3630957d33p-1",
            ),
            (
                "v003", ((), ("v000", "v001", "v002", "v004")),
                "-0x1.6c91011f04dbcp+0", "-0x1.a0b3630957d33p-1",
            ),
            (
                "v004", ((), ("v000", "v001", "v002", "v003")),
                "-0x1.6c91011f04dbcp+0", "-0x1.a0b3630957d33p-1",
            ),
        ],
    ),
    "path5": (
        lambda: path(5),
        {"a": 1.0, "b": 1.0, "edge_cost": 1.0},
        {"seed": 3},
        [
            (
                "v000", (("v001",), ("v002",)),
                "-0x1.4000000000000p+1", "-0x1.c7ae147ae147bp+0",
            ),
            (
                "v001", (("v002",), ("v003",)),
                "-0x1.6e147ae147ae1p+0", "-0x1.ddddddddddddcp-1",
            ),
            (
                "v002", None,
                "-0x1.1eb851eb851e0p-3", "-0x1.1eb851eb851e0p-3",
            ),
            (
                "v003", (("v002",), ("v001",)),
                "-0x1.6e147ae147ae1p+0", "-0x1.ddddddddddddcp-1",
            ),
            (
                "v004", (("v003",), ("v001",)),
                "-0x1.4000000000000p+1", "-0x1.c7ae147ae147bp+0",
            ),
        ],
    ),
    "circle6": (
        lambda: circle(6),
        {"a": 1.0, "b": 1.0, "edge_cost": 1.0},
        {"seed": 3},
        [
            (
                "v000", (("v001", "v005"), ("v002", "v004")),
                "-0x1.0000000000000p+1", "-0x1.57d3273daa0b4p+0",
            ),
            (
                "v001", (("v000", "v002"), ("v003", "v005")),
                "-0x1.0000000000000p+1", "-0x1.57d3273daa0b4p+0",
            ),
            (
                "v002", (("v001", "v003"), ("v000", "v004")),
                "-0x1.0000000000000p+1", "-0x1.57d3273daa0b4p+0",
            ),
            (
                "v003", (("v002", "v004"), ("v001", "v005")),
                "-0x1.0000000000000p+1", "-0x1.57d3273daa0b4p+0",
            ),
            (
                "v004", (("v003", "v005"), ("v000", "v002")),
                "-0x1.0000000000000p+1", "-0x1.57d3273daa0b4p+0",
            ),
            (
                "v005", (("v000", "v004"), ("v001", "v003")),
                "-0x1.0000000000000p+1", "-0x1.57d3273daa0b4p+0",
            ),
        ],
    ),
    "ba14-structured": (
        ba14,
        {"a": 1.0, "b": 1.0, "edge_cost": 0.5},
        {"seed": 3, "nodes": ["n0", "n6", "n12", "n13"]},
        [
            (
                "n0", (("n1", "n4"), ("n10",)),
                "-0x1.f814137a82e30p-1", "-0x1.e7a8a0232ac08p-2",
            ),
            (
                "n6", (("n12", "n4", "n5"), ("n3",)),
                "-0x1.13878cc4e35eep+1", "-0x1.64e8a2dc21698p+0",
            ),
            (
                "n12", None,
                "-0x1.70067351ac8e4p+0", "-0x1.70067351ac8e4p+0",
            ),
            (
                "n13", (("n10",), ("n2", "n5")),
                "-0x1.ac5f90874f06cp+0", "-0x1.721c8ce928ebdp+0",
            ),
        ],
    ),
    "ba14-sampled": (
        ba14,
        {"a": 1.0, "b": 2.0, "edge_cost": 0.5, "zipf_s": 0.7},
        {"seed": 9, "mode": "sampled"},
        [
            (
                "n0", (("n4",), ("n13",)),
                "0x1.e2a7651b29590p-1", "0x1.3bbf20a26f236p+0",
            ),
            (
                "n1", (("n7",), ("n2",)),
                "-0x1.79f1d13c7fe3ap+0", "-0x1.0a654dbfed34ep+0",
            ),
            (
                "n2", None,
                "-0x1.cdb53a12f9fabp+0", "-0x1.cdb53a12f9fabp+0",
            ),
            (
                "n3", ((), ("n6",)),
                "0x1.b9eb7db6d7414p+1", "0x1.e68c52c43a544p+1",
            ),
            (
                "n4", ((), ("n12",)),
                "0x1.6a4a20d7aec80p-5", "0x1.75eb53e5c8480p-4",
            ),
            (
                "n5", ((), ("n7",)),
                "-0x1.1886696e9df37p+0", "-0x1.75d614522c118p-1",
            ),
            (
                "n6", (("n4",), ("n10",)),
                "-0x1.e44cb5ce7a867p+0", "-0x1.48da69961b8f8p+0",
            ),
            (
                "n7", (("n1",), ()),
                "-0x1.f39339f7fbc3ep+0", "-0x1.9467e3cb50e30p+0",
            ),
            (
                "n8", None,
                "-0x1.760d9bc87bd64p+0", "-0x1.760d9bc87bd64p+0",
            ),
            (
                "n9", None,
                "-0x1.760d9bc87bd64p+0", "-0x1.760d9bc87bd64p+0",
            ),
            (
                "n10", ((), ("n2",)),
                "-0x1.f18d1ecc969cap+0", "-0x1.cde492e6ec5eep+0",
            ),
            (
                "n11", ((), ("n13",)),
                "-0x1.760d9bc87bd64p+0", "-0x1.73bf990f04248p+0",
            ),
            (
                "n12", None,
                "-0x1.49d8469932029p+0", "-0x1.49d8469932029p+0",
            ),
            (
                "n13", ((), ("n2",)),
                "-0x1.8d575e3552e36p+0", "-0x1.2feb66113c99ep+0",
            ),
        ],
    ),
}


@pytest.mark.parametrize("case_id", list(NASH_CASES))
def test_check_nash(case_id):
    build, model_kwargs, check_kwargs, expected = NASH_CASES[case_id]
    report = check_nash(build(), NetworkGameModel(**model_kwargs), **check_kwargs)
    assert [response_row(r) for r in report.responses.values()] == expected


#: case id -> (graph factory, node, model keyword arguments,
#: best_response keyword arguments, expected row)
RESPONSE_CASES = {
    "star4-leaf-exhaustive": (
        lambda: star(4),
        "v001",
        {"a": 1.0, "b": 1.0, "edge_cost": 0.4},
        {"mode": "exhaustive"},
        (
            "v001", None,
            "-0x1.d70a3d70a3d70p-1", "-0x1.d70a3d70a3d70p-1",
        ),
    ),
    "path6-end": (
        lambda: path(6),
        "v000",
        {"a": 1.5, "b": 0.5, "edge_cost": 0.7},
        {"seed": 2},
        (
            "v000", (("v001",), ("v002", "v004")),
            "-0x1.d99999999999ap+1", "-0x1.8947e11b0858bp+0",
        ),
    ),
    "ba14-hub": (
        ba14,
        "n0",
        {"a": 0.5, "b": 1.5, "edge_cost": 0.8, "zipf_s": 1.3},
        {"seed": 5, "balance": 2.0},
        (
            "n0", (("n3", "n4"), ()),
            "-0x1.72aec2bafbf5ap+0", "-0x1.afc8ca8e55058p-2",
        ),
    ),
}


@pytest.mark.parametrize("case_id", list(RESPONSE_CASES))
def test_best_response(case_id):
    build, node, model_kwargs, response_kwargs, expected = RESPONSE_CASES[case_id]
    response = best_response(
        build(), node, NetworkGameModel(**model_kwargs), **response_kwargs
    )
    assert response_row(response) == expected


#: ``(final_topology, nash_stable, total_moves)`` of the run's row.
EVOLUTION_READABLE = ("star", True, 12)
EVOLUTION_DIGEST = (
    "12d3cdd8e2f774e0d34d99666f0235c1842e8a273642cf0884c4de871c5b0c1f"
)


def test_analytic_evolution_ba10():
    scenario = Scenario(
        topology=TopologySpec("ba", {"n": 10, "capacity_mu": 2.0}),
        evolution=EvolutionSpec(
            epochs=2, traffic_horizon=3.0, final_nash_check=True
        ),
        name="golden-evolution",
        seed=5,
    )
    result = ScenarioRunner(obs=NULL_SESSION).run(scenario)
    row = result.to_dict()["row"]
    assert (
        row["final_topology"], row["nash_stable"], row["total_moves"]
    ) == EVOLUTION_READABLE
    assert content_hash(result.to_dict()) == EVOLUTION_DIGEST



def table_digest(table):
    """Hash of a label-keyed float table as sorted ``[key, hex]`` rows."""
    rows = sorted([str(key), value.hex()] for key, value in table.items())
    return content_hash(rows)


def sender_rates(graph):
    """Per-sender rates 0, 1, 2, 0.5, 0, 1, ... over sorted node labels."""
    cycle = (0.0, 1.0, 2.0, 0.5)
    labels = sorted(graph.nodes, key=str)
    return {node: cycle[i % len(cycle)] for i, node in enumerate(labels)}


#: case id -> (n, snapshot seed, distribution, amount, expected
#: (edge_rates digest, intermediary_traffic digest))
RATE_CASES = {
    "ba40-zipf-dense": (40, 21, "zipf-1.0", 1.0, (
        "ee8829711ed95dd5f9bab4624445638023726b63bd1cd6fdca5300306a77edb8",
        "aff6f7b72af8c1f914412ad4ac14cfd947d4fadfc706b3fecdaa82efa786b82a",
    )),
    "ba40-uniform-dense": (40, 22, "uniform", 0.5, (
        "4c49e1fdbb36eaca038ad79c54b3c74f01002b0993e6a90ad41dd214d1529e8d",
        "5ddd6ab3c3d34ca73eb891abb78aa93c1ea2b926b43e63a1e1a1a7f491a23edf",
    )),
    "ba170-zipf-csr": (170, 23, "zipf-0.7", 1.0, (
        "610942727bddeb69e07a08bf9fa5a597e40b84c16197863b4beb75e3cf4eef0b",
        "bd94113135c791653104e2b4f88f705f6068c443e78df35faeaa017b7fedb6f7",
    )),
}


def distribution_of(graph, kind):
    if kind == "uniform":
        return UniformDistribution.from_graph(graph)
    return ModifiedZipf(graph, s=float(kind.split("-")[1]))


@pytest.mark.parametrize("case_id", list(RATE_CASES))
def test_rate_tables(case_id):
    n, seed, kind, amount, expected = RATE_CASES[case_id]
    graph = barabasi_albert_snapshot(n, seed=seed)
    distribution = distribution_of(graph, kind)
    rates = sender_rates(graph)
    edges = edge_rates(
        graph, distribution, total_tx_rate=3.0 * n, amount=amount,
        sender_weights=rates,
    )
    traffic = intermediary_traffic(
        graph, distribution, per_sender_rates=rates, amount=amount
    )
    assert (table_digest(edges), table_digest(traffic)) == expected
