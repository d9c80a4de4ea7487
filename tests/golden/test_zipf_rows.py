"""Golden modified-Zipf rows: pinned ``ModifiedZipf.receivers`` output.

Each case reads one sender's receiver row and hashes it in dict order,
node by node, with every probability's exact bits. Beside the hash sits a
readable digest of the same row: its first three receivers, the number of
tie blocks (runs of equal probability in row order) and its largest
probability. A change to the ranking order, the tie-block averaging or
the normalisation moves the hash; the digest shows which one moved.

The cases cover a BA-200 graph at three Zipf exponents, seen from its hub
(degree 23, tied with two other nodes), a degree-2 leaf and a degree-3
median node, and every perspective of a small multigraph with parallel
channels and an isolated node.

Regenerate a digest only for an intentional change to the traffic model,
and record the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.network.graph import ChannelGraph
from repro.snapshots.synthetic import barabasi_albert_snapshot
from repro.transactions.zipf import ModifiedZipf

GRAPH_SEED = 7

# (s, sender, top three receivers, tie blocks, max probability, sha256)
BA_CASES = [
    (0.0, "n0", ["n9", "n1", "n13"], 1, 0.005025125628140704,
     "1e1d6cc211122dfd8bcbcb35cc5e945f6d6c7d2e2e1edaef7f6943df81aac129"),
    (0.0, "n99", ["n0", "n1", "n2"], 1, 0.005025125628140704,
     "e7d0fa6aa3af58f4c462b723b1dca4185721bebc756a43ce18f59ed2872dfacd"),
    (0.0, "n81", ["n0", "n1", "n9"], 1, 0.005025125628140704,
     "eaedc0c588215fe101f068580c7672f65916e5ecf7d4fd9ffd8a86374abc280d"),
    (1.0, "n0", ["n9", "n1", "n13"], 15, 0.17026983321446074,
     "cdbb759bd7b05f6e7276f884fbd1257d2aface4a9014efa06e2cc12f14cc4bf0"),
    (1.0, "n99", ["n0", "n1", "n2"], 14, 0.12770237491084507,
     "61020f77ce23937c9e5336d213b0d6929f2e480d0ff81a504f8a0313270ee443"),
    (1.0, "n81", ["n0", "n1", "n9"], 16, 0.1040537869643929,
     "7d3b8faaebf8cceca81727e4c1523fdc65198b59b35dd2137dc5dc975acbac94"),
    (2.3, "n0", ["n9", "n1", "n13"], 15, 0.698504248748079,
     "481ce669cf7e69b679ba7688f6d1e69e80e9148335f8c238db93b066792ceba5"),
    (2.3, "n99", ["n0", "n1", "n2"], 14, 0.42017234311286716,
     "7ae2ff2706d031a7731d9e45e4b7e980789954da1af1f98b92424f26e32eca62"),
    (2.3, "n81", ["n0", "n1", "n9"], 16, 0.29872157638950647,
     "ddcdccd9f3d84cb6fb047312157871187c5bf0cff85c48cb9885b508f28fef44"),
]

MULTIGRAPH_CASES = [
    (0.0, "a", ["c", "d", "b"], 1, 0.2,
     "6e6450c9859dd5d141c1eed128e9d5e05a83c26b80ff7b5e1bc90660aae82785"),
    (0.0, "b", ["c", "d", "a"], 1, 0.2,
     "622fd44f5fb8a3f9f505f663ee294787f6723f79cca0e3ddfaeb1a2a92c71672"),
    (0.0, "c", ["a", "b", "d"], 1, 0.2,
     "06ddef166cfacb0e08c5fa1bad3d19b0c4b65e0c5cae585b051080942addec07"),
    (0.0, "d", ["a", "b", "c"], 1, 0.2,
     "ad65ce338b48b4fa983429f6e35cef2bfcb575bcf241ca7c5f6ad4f259e5a1d9"),
    (0.0, "e", ["c", "a", "b"], 1, 0.2,
     "9128077d8fb9abf963d80e5799ea2cdc4b0853d451c150ab5d267b5e5fae0507"),
    (0.0, "lonely", ["c", "d", "a"], 1, 0.2,
     "68bfd5e76ccf16549881522b2fe57bbefda2f8273f276c675ec6c1fd6ac1e191"),
    (1.0, "a", ["c", "d", "b"], 3, 0.3284671532846716,
     "a5b883a4c5b77e7b61b685e87959e7ca43597d9abf0ba1f63ebe707012904420"),
    (1.0, "b", ["c", "d", "a"], 3, 0.3284671532846716,
     "70d55ef9f6f31c0797b6abbf1ce259676769a983d5899f774f919cfa46ebb6fc"),
    (1.0, "c", ["a", "b", "d"], 3, 0.3284671532846716,
     "c671f0c2d9793965c42131dc5cd807a721b5b0bb969870229143d3b57492900d"),
    (1.0, "d", ["a", "b", "c"], 3, 0.3284671532846716,
     "8010f58ba23547081876b63e63cc75c6f95d089f9b9c58caf406eb3d21ef804e"),
    (1.0, "e", ["c", "a", "b"], 3, 0.437956204379562,
     "1abe235e7f7beb25e3522aebe50537c71b9c7214bb512e786dcc5e6affda0e67"),
    (1.0, "lonely", ["c", "d", "a"], 4, 0.43795620437956206,
     "542711547eeb6bda97d21ea6ab88602cc26c14a010b352699bce248bb9df4027"),
    (2.3, "a", ["c", "d", "b"], 3, 0.44594468187003417,
     "65ab43eb11a8d5100adc3b1d0c4548b4d7e30bb8dba0e336a3ab8abf4971a661"),
    (2.3, "b", ["c", "d", "a"], 3, 0.44594468187003417,
     "f52db78796fb36180556badb290c1ebd83d99854aa1612efd9f0f57ef42ff134"),
    (2.3, "c", ["a", "b", "d"], 3, 0.44594468187003417,
     "9891aa993f4ae9aa5b1e3264f22a6aa9b0d5c16160f35e178a6e22b3aae28f59"),
    (2.3, "d", ["a", "b", "c"], 3, 0.4459446818700342,
     "6b03e84afeccaa252ad2823b491089374551786749de1610fa492fcd69569ba9"),
    (2.3, "e", ["c", "a", "b"], 3, 0.7413487824665168,
     "903bf76bb581799e296c2ae1f94e30c7d1448b7ece8ab88dc73641cdc632d35e"),
    (2.3, "lonely", ["c", "d", "a"], 4, 0.7413487824665168,
     "d5ed5e719974aedd63ff097a9aa5b0f4564a3b747eb0f2d2b054f7562196f68d"),
]


@pytest.fixture(scope="module")
def ba200() -> ChannelGraph:
    return barabasi_albert_snapshot(200, seed=GRAPH_SEED)


def multigraph() -> ChannelGraph:
    graph = ChannelGraph()
    for u, v in [("a", "b"), ("a", "b"), ("a", "c"), ("b", "c"),
                 ("c", "d"), ("c", "d"), ("c", "d"), ("d", "e")]:
        graph.add_channel(u, v, 1.0, 1.0)
    graph.add_node("lonely")
    return graph


def row_digest(row):
    """``(top three receivers, tie blocks, max probability, sha256)``."""
    digest = hashlib.sha256()
    for node, probability in row.items():
        digest.update(repr(node).encode() + b"\0" + struct.pack("<d", probability))
    probabilities = list(row.values())
    blocks = sum(
        1 for i, p in enumerate(probabilities) if i == 0 or p != probabilities[i - 1]
    )
    return list(row)[:3], blocks, max(probabilities), digest.hexdigest()


@pytest.mark.parametrize("s, sender, top, blocks, max_p, sha", BA_CASES)
def test_ba200_row(ba200, s, sender, top, blocks, max_p, sha):
    row = ModifiedZipf(ba200, s=s).receivers(sender)
    assert row_digest(row) == (top, blocks, max_p, sha)


@pytest.mark.parametrize("s, sender, top, blocks, max_p, sha", MULTIGRAPH_CASES)
def test_multigraph_row(s, sender, top, blocks, max_p, sha):
    row = ModifiedZipf(multigraph(), s=s).receivers(sender)
    assert row_digest(row) == (top, blocks, max_p, sha)
