"""Golden synthetic topologies: pinned digests of the seeded generators.

Each case builds one seeded snapshot and hashes it: node labels in graph
order, then every channel in iteration order as its two endpoints and
both balances, with each balance's exact bits. Channel ids are left
out: they number the channels, and the iteration order already pins
that. Beside the hash sits a readable digest: node count, channel count
and total capacity.

The cases cover ``ba``, ``erdos-renyi`` and ``core-periphery``, each at
seeds 1 and 2 with default parameters and at seeds 3 and 4 with one
non-default parameter set. A change to a generator's RNG draws, its structure graph
or its funding moves a hash.

Regenerate a digest only for an intentional change to a generator, and
record the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.snapshots.synthetic import (
    barabasi_albert_snapshot,
    core_periphery_snapshot,
    erdos_renyi_snapshot,
)

GENERATORS = {
    "ba": barabasi_albert_snapshot,
    "erdos-renyi": erdos_renyi_snapshot,
    "core-periphery": core_periphery_snapshot,
}

#: One non-default parameter set per generator.
BA_PARAMS = {"n": 40, "attachments": 3, "capacity_mu": 3.0, "balance_skew": 1.0}
ER_PARAMS = {"n": 25, "p": 0.3, "capacity_sigma": 0.5}
CP_PARAMS = {"core_size": 6, "periphery_size": 30, "periphery_links": 3}

# (kind, params, seed, nodes, channels, total capacity, sha256)
CASES = [
    ("ba", {"n": 60}, 1, 60, 116, 698.3180149222885,
     "36682d387da77799a60a7bf486dfd2d1ff3668c1da0b9800a8a392975307b629"),
    ("ba", {"n": 60}, 2, 60, 116, 910.7126546248309,
     "2994d6f50901d23d731f19e3006ffaeb7495ac4d95690804ca1c086e2e05eb3a"),
    ("ba", BA_PARAMS, 3, 40, 111, 4267.664949697075,
     "e712ed9406ac7355d6d87766acc70e21f2471aa98039143be706ad6fe378d2c2"),
    ("ba", BA_PARAMS, 4, 40, 111, 3113.5116051735968,
     "ef3413b3d65b680c1de7bb74ef53c0ef33c300dd96e31a4d49274d9568511815"),
    ("erdos-renyi", {"n": 40}, 1, 40, 89, 473.7696561168632,
     "6d4de7296c96ee4dd7695637290d46d0eb5166a9ca6937dd6e3151a3f2c8b45c"),
    ("erdos-renyi", {"n": 40}, 2, 40, 81, 522.7476381758834,
     "2bd344a6f3ee54b3f094524c82eb724d66f8ea14e769665b898b6ccad0c5646c"),
    ("erdos-renyi", ER_PARAMS, 3, 25, 91, 493.46524165444924,
     "25905001db3c734afd94e206a67e2359e457c50f38e514449d277b6315b9915b"),
    ("erdos-renyi", ER_PARAMS, 4, 25, 106, 524.8680301731033,
     "a05fcf7ad57776fd588c6dadcdc56f9340ec04fdc6ddf5f734ec9d65f6ecc9a0"),
    ("core-periphery", {}, 1, 100, 242, 1717.881361328064,
     "caa12657310e18db3bba551405a85b500e27124ab82eb00affdd42abcd21e6ae"),
    ("core-periphery", {}, 2, 100, 242, 1712.2458491996395,
     "bb4c30365e8fc611ee5e9a3d164a60b39c076fd749011a17a8d131f8ac87c39c"),
    ("core-periphery", CP_PARAMS, 3, 36, 105, 896.7952939257269,
     "c7198f1bf71372cc82e607ab9c975ad3a909f655456272e82dcd20555010fde7"),
    ("core-periphery", CP_PARAMS, 4, 36, 105, 735.6343064389129,
     "678bc087395dab529dcddb9409fa112fd25e025ec096c0bee8650b8f3dcdfe6b"),
]


def topology_digest(graph):
    """``(nodes, channels, total capacity, sha256)`` of one snapshot."""
    digest = hashlib.sha256()
    for node in graph.nodes:
        digest.update(repr(node).encode() + b"\0")
    digest.update(b"\1")
    for channel in graph.channels:
        u, v = channel.endpoints
        digest.update(
            repr(u).encode() + b"\0" + repr(v).encode() + b"\0"
            + struct.pack("<dd", channel.balance(u), channel.balance(v))
        )
    return (
        len(graph), graph.num_channels(), graph.total_capacity(),
        digest.hexdigest(),
    )


@pytest.mark.parametrize(
    "kind, params, seed, nodes, channels, capacity, sha",
    CASES,
    ids=[f"{kind}-seed{seed}" for kind, _params, seed, *_ in CASES],
)
def test_topology(kind, params, seed, nodes, channels, capacity, sha):
    graph = GENERATORS[kind](seed=seed, **params)
    assert topology_digest(graph) == (nodes, channels, capacity, sha)
