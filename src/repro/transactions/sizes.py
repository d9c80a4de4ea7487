"""Transaction-size distributions on ``[0, T]``.

The paper assumes transactions have sizes in ``[0, T]`` drawn from a global
size distribution (Section II-A). Workloads draw the amounts of their
payments from these distributions.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import InvalidParameter

__all__ = [
    "TransactionSizeDistribution",
    "UniformSizes",
    "TruncatedExponentialSizes",
    "FixedSize",
]


class TransactionSizeDistribution(abc.ABC):
    """A continuous (or degenerate) distribution of payment amounts."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` sizes."""

    def draw(self, rng: np.random.Generator) -> float:
        """One size as a ``float``, from the draws of ``sample(rng, 1)``."""
        return float(self.sample(rng, 1)[0])


class UniformSizes(TransactionSizeDistribution):
    """Sizes uniform on ``[low, high]``."""

    def __init__(self, high: float, low: float = 0.0) -> None:
        if not high > low >= 0:
            raise InvalidParameter("need high > low >= 0")
        self.low = low
        self.high = high

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


class TruncatedExponentialSizes(TransactionSizeDistribution):
    """Exponential(scale) truncated to ``[0, T]``.

    A heavier concentration of small payments, which is what public
    Lightning payment studies report; the truncation keeps the paper's
    bounded-size assumption.
    """

    def __init__(self, scale: float, high: float) -> None:
        if scale <= 0 or high <= 0:
            raise InvalidParameter("scale and high must be > 0")
        self.scale = scale
        self.high = high
        self._mass = 1.0 - np.exp(-high / scale)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        # inverse CDF of the truncated exponential
        u = rng.uniform(0.0, 1.0, size=n)
        return -self.scale * np.log1p(-u * self._mass)


class FixedSize(TransactionSizeDistribution):
    """Every transaction has the same size (degenerate distribution)."""

    def __init__(self, size: float) -> None:
        if size <= 0:
            raise InvalidParameter("size must be > 0")
        self.size = size

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.full(n, self.size)

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.size)
