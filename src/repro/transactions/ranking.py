"""Degree ranking and the tie-averaged rank factors of Section II-B.

The modified Zipf distribution ranks, from the perspective of a user ``u``,
every *other* node by in-degree (computed on the graph with ``u`` and its
incident channels removed) and assigns each node ``v`` a *rank factor*

    rf(v) = ( 1/r0^s + 1/(r0+1)^s + ... + 1/(r0+n(v)-1)^s ) / n(v)

where ``r0 = r0(v)`` is the first (best) rank of ``v``'s in-degree class and
``n(v)`` is the size of that class. Averaging over the tie block makes the
probability of transacting with two equal-degree nodes equal, which is the
paper's stated motivation for modifying plain Zipf.

The paper's formula writes the last term as ``1/(r0(v)+n(v))^s``; summing
``n(v)`` consecutive ranks starting at ``r0`` ends at ``r0+n(v)-1``, and we
use that reading (the off-by-one in the text would double-count one rank
between adjacent tie blocks and break normalisation).

:class:`DegreeRanking` builds the rows of a batch of senders as arrays.
Each row is ``G - u``'s degrees, one less per channel to ``u`` (one
``bincount`` per batch over a kept array of every node's channel peers,
so the loss takes ``batch x n`` cells), sorted by one argsort of the
keys ``(-degree, str rank, index)``. Tie blocks are
the runs of equal degree. Each distinct ``(first rank, size)`` in the
batch is averaged once. Sums run left to right: the block average adds
its terms one at a time and the row totals are an ``np.cumsum``. So the
bits do not depend on how the Python version's ``sum()`` adds floats.
"""

from __future__ import annotations

import functools
import operator
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter, NodeNotFound
from ..network.graph import ChannelGraph

__all__ = ["DegreeRanking"]

#: A key above every node's: the sender's own column sorts last.
_LAST = np.iinfo(np.int64).max


def check_zipf_s(s: float) -> None:
    """Reject a negative Zipf scale parameter."""
    if s < 0:
        raise InvalidParameter(f"Zipf parameter s must be >= 0, got {s}")


class DegreeRanking:
    """A graph's degrees and tie-break order, read once; :meth:`ranked`
    and :meth:`probabilities` derive the ``G - u`` rows of a batch of
    senders ``u``.

    Degrees are read at construction, and the channel peers at the first
    batch of senders: build a new ranking after the graph's topology
    changes.
    """

    def __init__(self, graph: ChannelGraph) -> None:
        self.graph = graph
        self.nodes = graph.nodes
        n = len(self.nodes)
        self.index: Dict[Hashable, int] = dict(zip(self.nodes, range(n)))
        self.degrees = np.fromiter(
            map(graph.degree, self.nodes), dtype=np.int64, count=n
        )
        # each node's place in (str(node), graph order): the key below degree
        names = list(map(str, self.nodes))
        self._tiebreak = np.empty(n, dtype=np.int64)
        self._tiebreak[sorted(range(n), key=names.__getitem__)] = np.arange(n)
        self._peer_table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def position(self, node: Hashable) -> int:
        """``node``'s index in :attr:`nodes`."""
        try:
            return self.index[node]
        except KeyError:
            raise NodeNotFound(node) from None

    def _peers(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(peers, bounds)``: the other end of every channel of node
        ``i``, one per channel, at ``peers[bounds[i]:bounds[i + 1]]``.
        Read from the graph on first use and kept."""
        if self._peer_table is None:
            n = len(self.nodes)
            channels = self.graph.channels
            position = self.index.__getitem__
            ends = np.array(
                [list(map(position, map(operator.attrgetter(end), channels))) for end in "uv"],
                dtype=np.int64,
            )
            owners, others = ends.ravel(), ends[::-1].ravel()
            bounds = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(owners, minlength=n), out=bounds[1:])
            self._peer_table = others[np.argsort(owners)], bounds
        return self._peer_table

    def ranked(
        self, senders: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, degrees)``, one row per sender index ``u``: the nodes
        of ``G - u`` as indices in rank order, and their degrees in
        ``G - u``. With ``senders=None``, one row ranks the whole graph.
        """
        n = len(self.nodes)
        if senders is None:
            degrees = self.degrees[None, :]
            keys = self._tiebreak - n * degrees
            width = n
        else:
            count = len(senders)
            peers, bounds = self._peers()
            rows = np.asarray(senders, dtype=np.int64)
            starts = bounds[rows]
            sizes = bounds[rows + 1] - starts
            # each sender's run of peers, laid end to end
            runs = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
            # one flat (row, peer) cell of the (count, n) loss per channel
            lost = np.repeat(np.arange(count) * n, sizes) + peers[runs]
            degrees = self.degrees - np.bincount(
                lost, minlength=count * n
            ).reshape(count, n)
            keys = self._tiebreak - n * degrees
            keys[np.arange(count), senders] = _LAST  # u sorts last
            width = n - 1
        order = np.argsort(keys, axis=1)[:, :width]
        return order, degrees[np.arange(len(order))[:, None], order]

    def probabilities(
        self, senders: Optional[Sequence[int]], s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, probs)``: :meth:`ranked`'s receivers of each row and
        their ``p_trans``, each rank factor divided by its row's total."""
        check_zipf_s(s)
        order, degrees = self.ranked(senders)
        factors = _tie_factors(degrees, s)
        if factors.shape[1]:
            factors /= np.cumsum(factors, axis=1)[:, -1:]
        return order, factors


@functools.lru_cache(maxsize=8192, typed=True)
def _tie_block_average(first_rank: int, block_size: int, s: float) -> float:
    """Mean of ``1/r^s`` over ranks ``first_rank .. first_rank+block_size-1``.

    Adds the terms left to right, rank by rank. Memoised: every sender's
    row of a graph repeats nearly the same tie blocks, and a block of
    low-degree nodes can span most of the ranks.
    """
    total = 0.0
    for rank in range(first_rank, first_rank + block_size):
        total += 1.0 / float(rank) ** s
    return total / block_size


def _tie_factors(degrees: np.ndarray, s: float) -> np.ndarray:
    """Rank factor per position of rows of non-increasing degrees."""
    count, width = degrees.shape
    cells = count * width
    if cells == 0:
        return np.zeros((count, width))
    flat = degrees.ravel()
    starts = np.empty(cells, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::width] = True  # every row opens a block
    firsts = starts.nonzero()[0]
    sizes = np.empty_like(firsts)
    np.subtract(firsts[1:], firsts[:-1], out=sizes[:-1])
    sizes[-1] = cells - firsts[-1]
    blocks = list(zip((firsts % width + 1).tolist(), sizes.tolist()))
    averages = dict.fromkeys(blocks)
    for first_rank, size in averages:
        averages[first_rank, size] = _tie_block_average(first_rank, size, s)
    return np.repeat(
        np.array([averages[block] for block in blocks]), sizes
    ).reshape(count, width)
