"""Poisson payment workload generation (Section II-B's traffic process).

Transactions are modelled as a marked Poisson process: network-wide
arrivals at rate ``N`` per unit time; each arrival picks a sender
(proportional to per-sender rates ``N_u``), a receiver from the
transaction distribution, and a size from the size distribution. The
superposition/thinning equivalence means this is the same process as
"every sender u emits at rate N_u" — which is how the paper phrases it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Iterator, List, Mapping, Optional

import numpy as np

from ..errors import InvalidParameter, ScenarioError
from ..scenarios.registry import register_workload
from .distributions import (
    TransactionDistribution,
    UniformDistribution,
    choice_cdf,
)
from .sizes import (
    FixedSize,
    TransactionSizeDistribution,
    TruncatedExponentialSizes,
    UniformSizes,
)

__all__ = [
    "PoissonWorkload",
    "Transaction",
    "build_poisson_workload",
]


@dataclass(frozen=True)
class Transaction:
    """One payment intent."""

    time: float
    sender: Hashable
    receiver: Hashable
    amount: float


class PoissonWorkload:
    """Generates payment intents as a marked Poisson process.

    Args:
        distribution: receiver choice per sender (``p_trans``).
        sender_rates: ``N_u`` per sender; senders with rate 0 never send.
        sizes: payment-size distribution (defaults to fixed size 1).
        seed: RNG seed for reproducibility.
    """

    def __init__(
        self,
        distribution: TransactionDistribution,
        sender_rates: Mapping[Hashable, float],
        sizes: Optional[TransactionSizeDistribution] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.distribution = distribution
        self._senders: List[Hashable] = [
            node for node, rate in sender_rates.items() if rate > 0
        ]
        if not self._senders:
            raise InvalidParameter("at least one sender must have positive rate")
        rates = np.fromiter(
            (sender_rates[node] for node in self._senders), dtype=float
        )
        self.total_rate = float(rates.sum())
        self._sender_cdf = choice_cdf(rates / self.total_rate).tolist()
        self.sizes = sizes if sizes is not None else FixedSize(1.0)
        self._rng = np.random.default_rng(seed)

    def generate(self, horizon: float) -> Iterator[Transaction]:
        """Yield transactions with arrival times in ``[0, horizon)``."""
        if horizon <= 0:
            raise InvalidParameter(f"horizon must be > 0, got {horizon}")
        time = 0.0
        while True:
            time += self._rng.exponential(1.0 / self.total_rate)
            if time >= horizon:
                return
            yield self._draw(time)

    def generate_count(self, count: int) -> List[Transaction]:
        """Exactly ``count`` transactions (times still Poisson-spaced)."""
        if count < 0:
            raise InvalidParameter(f"count must be >= 0, got {count}")
        out: List[Transaction] = []
        time = 0.0
        for _ in range(count):
            time += self._rng.exponential(1.0 / self.total_rate)
            out.append(self._draw(time))
        return out

    def _draw(self, time: float) -> Transaction:
        # one random() per sender, as rng.choice(p=...) would consume
        sender = self._senders[bisect_right(self._sender_cdf, self._rng.random())]
        receiver = self.distribution.sample_receiver(sender, self._rng)
        amount = self.sizes.draw(self._rng)
        return Transaction(time=time, sender=sender, receiver=receiver, amount=amount)



def _build_sizes(document: Optional[Mapping]) -> Optional[TransactionSizeDistribution]:
    """Build a size distribution from a nested workload-spec document."""
    if document is None:
        return None
    kinds = {
        "fixed": FixedSize,
        "uniform": UniformSizes,
        "truncated-exponential": TruncatedExponentialSizes,
    }
    params = dict(document)
    kind = params.pop("kind", None)
    if kind not in kinds:
        raise ScenarioError(
            f"unknown size distribution {kind!r}; known: {sorted(kinds)}"
        )
    try:
        return kinds[kind](**params)
    except TypeError as exc:
        raise ScenarioError(
            f"size distribution {kind!r} rejected params {params!r}: {exc}"
        ) from exc


@register_workload("poisson")
def build_poisson_workload(
    graph,
    seed: Optional[int] = None,
    rate: float = 1.0,
    rates: Optional[Mapping[str, float]] = None,
    distribution: str = "zipf",
    zipf_s: float = 1.0,
    sizes: Optional[Mapping] = None,
) -> PoissonWorkload:
    """The ``"poisson"`` workload plugin: a marked Poisson process on ``graph``.

    Args:
        graph: the :class:`~repro.network.graph.ChannelGraph` to draw
            senders/receivers from.
        seed: RNG seed (injected by the scenario runner).
        rate: uniform per-sender rate ``N_u`` applied to every node.
        rates: explicit per-node rates; overrides ``rate`` where given
            (nodes absent from the mapping keep ``rate``).
        distribution: receiver choice — ``"zipf"`` (the paper's
            modified-Zipf model, skew ``zipf_s``) or ``"uniform"``.
        zipf_s: Zipf scale parameter (``"zipf"`` only).
        sizes: nested size-distribution document, e.g.
            ``{"kind": "truncated-exponential", "scale": 0.5, "high": 5.0}``;
            default is fixed size 1.
    """
    from .zipf import ModifiedZipf  # local: keeps this module a light import

    if distribution == "zipf":
        receiver_choice: TransactionDistribution = ModifiedZipf(graph, s=zipf_s)
    elif distribution == "uniform":
        receiver_choice = UniformDistribution(list(graph.nodes))
    else:
        raise ScenarioError(
            f"unknown receiver distribution {distribution!r}; "
            "known: ['uniform', 'zipf']"
        )
    sender_rates = {node: rate for node in graph.nodes}
    if rates is not None:
        unknown = sorted(str(node) for node in rates if node not in sender_rates)
        if unknown:
            raise ScenarioError(
                f"rates name nodes not in the graph: {unknown}"
            )
        sender_rates.update({node: float(r) for node, r in rates.items()})
    return PoissonWorkload(
        receiver_choice,
        sender_rates,
        sizes=_build_sizes(sizes),
        seed=seed,
    )
