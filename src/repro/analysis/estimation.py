"""Estimating the model's parameters from observed traffic.

The paper's conclusion flags "developing more accurate methods for
estimating these parameters" (the total transaction rate N, per-user rates
N_u, and the transaction distribution) as future work; its model assumes
a joining user "knows the distribution of transactions in the network".
This module closes that loop: given an observed transaction trace (e.g.
produced by the simulator, or by a node watching its own forwards), it
recovers:

* per-sender Poisson rates with exact chi-square confidence intervals;
* the Zipf scale parameter ``s`` by maximum likelihood under the
  modified-Zipf receiver model (grid + golden-section refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter
from ..network.graph import ChannelGraph
from ..transactions.workload import Transaction
from ..transactions.zipf import ModifiedZipf

__all__ = [
    "RateEstimate",
    "estimate_sender_rates",
    "ZipfEstimate",
    "estimate_zipf_s",
]


@dataclass(frozen=True)
class RateEstimate:
    """A Poisson rate with an exact confidence interval."""

    rate: float
    count: int
    horizon: float
    ci_low: float
    ci_high: float

    def contains(self, true_rate: float) -> bool:
        return self.ci_low <= true_rate <= self.ci_high


def _poisson_rate_ci(
    count: int, horizon: float, confidence: float
) -> Tuple[float, float]:
    """Exact (Garwood) chi-square CI for a Poisson rate."""
    from scipy import stats  # local: scipy.stats dominates `import repro.cli`

    alpha = 1.0 - confidence
    low = (
        stats.chi2.ppf(alpha / 2.0, 2 * count) / (2.0 * horizon)
        if count > 0
        else 0.0
    )
    high = stats.chi2.ppf(1.0 - alpha / 2.0, 2 * count + 2) / (2.0 * horizon)
    return float(low), float(high)


def estimate_sender_rates(
    transactions: Iterable[Transaction],
    horizon: float,
    confidence: float = 0.95,
) -> Dict[Hashable, RateEstimate]:
    """Per-sender Poisson rate estimates from a trace over ``horizon``."""
    if horizon <= 0:
        raise InvalidParameter("horizon must be > 0")
    if not 0 < confidence < 1:
        raise InvalidParameter("confidence must be in (0, 1)")
    counts: Dict[Hashable, int] = {}
    for tx in transactions:
        counts[tx.sender] = counts.get(tx.sender, 0) + 1
    out = {}
    for sender, count in counts.items():
        low, high = _poisson_rate_ci(count, horizon, confidence)
        out[sender] = RateEstimate(
            rate=count / horizon,
            count=count,
            horizon=horizon,
            ci_low=low,
            ci_high=high,
        )
    return out


@dataclass(frozen=True)
class ZipfEstimate:
    """MLE of the Zipf scale parameter."""

    s: float
    log_likelihood: float
    samples: int


def _trace_log_likelihood(
    graph: ChannelGraph,
    pairs: Sequence[Tuple[Hashable, Hashable]],
    s: float,
) -> float:
    zipf = ModifiedZipf(graph, s=s)
    rows: Dict[Hashable, Dict[Hashable, float]] = {}
    total = 0.0
    for sender, receiver in pairs:
        if sender not in rows:
            rows[sender] = zipf.receivers(sender)
        p = rows[sender].get(receiver, 0.0)
        if p <= 0:
            return -math.inf
        total += math.log(p)
    return total


def estimate_zipf_s(
    graph: ChannelGraph,
    transactions: Iterable[Transaction],
    s_max: float = 6.0,
    coarse_points: int = 25,
    refine_iterations: int = 40,
) -> ZipfEstimate:
    """Maximum-likelihood ``s`` under the modified-Zipf receiver model.

    Coarse grid over ``[0, s_max]`` followed by golden-section refinement
    around the best grid point (the log-likelihood is smooth and, in
    practice, unimodal in ``s``).
    """
    pairs = [(tx.sender, tx.receiver) for tx in transactions]
    if not pairs:
        raise InvalidParameter("need at least one transaction")
    grid = np.linspace(0.0, s_max, coarse_points)
    values = [_trace_log_likelihood(graph, pairs, float(s)) for s in grid]
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    # golden-section search on [lo, hi]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _trace_log_likelihood(graph, pairs, c)
    fd = _trace_log_likelihood(graph, pairs, d)
    for _ in range(refine_iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _trace_log_likelihood(graph, pairs, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _trace_log_likelihood(graph, pairs, d)
    s_hat = (a + b) / 2.0
    return ZipfEstimate(
        s=s_hat,
        log_likelihood=_trace_log_likelihood(graph, pairs, s_hat),
        samples=len(pairs),
    )

