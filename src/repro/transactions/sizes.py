"""Transaction-size distributions on ``[0, T]``.

The paper assumes transactions have sizes in ``[0, T]`` drawn from a global
size distribution; ``f_avg`` is the fee function averaged under it
(Section II-A). The simulator also samples actual payment amounts from
these distributions.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

_trapz = getattr(np, "trapezoid", getattr(np, "trapz", None))

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
    def support(self) -> Tuple[float, float]:
        """``(lo, hi)`` bounds of possible sizes."""

    @abc.abstractmethod
    def pdf(self, t: np.ndarray) -> np.ndarray:
        """Density evaluated element-wise on ``t``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` sizes."""

    def draw(self, rng: np.random.Generator) -> float:
        """One size as a ``float``, from the draws of ``sample(rng, 1)``."""
        return float(self.sample(rng, 1)[0])

    def mean(self, grid_points: int = 2001) -> float:
        """Expected size via trapezoidal integration of ``t * pdf(t)``."""
        lo, hi = self.support()
        grid = np.linspace(lo, hi, grid_points)
        return float(_trapz(grid * self.pdf(grid), grid))


class UniformSizes(TransactionSizeDistribution):
    """Sizes uniform on ``[low, high]``."""

    def __init__(self, high: float, low: float = 0.0) -> None:
        if not high > low >= 0:
            raise InvalidParameter("need high > low >= 0")
        self.low = low
        self.high = high

    def support(self) -> Tuple[float, float]:
        return (self.low, self.high)

    def pdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = (t >= self.low) & (t <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

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

    def support(self) -> Tuple[float, float]:
        return (0.0, self.high)

    def pdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = (t >= 0) & (t <= self.high)
        dens = np.exp(-t / self.scale) / (self.scale * self._mass)
        return np.where(inside, dens, 0.0)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        # inverse CDF of the truncated exponential
        u = rng.uniform(0.0, 1.0, size=n)
        return -self.scale * np.log1p(-u * self._mass)


class FixedSize(TransactionSizeDistribution):
    """Every transaction has the same size (degenerate distribution).

    ``pdf`` is represented as a narrow triangular spike so that numeric
    integration of ``E[F(t)]`` still works; ``sample`` is exact.
    """

    def __init__(self, size: float, width_fraction: float = 1e-3) -> None:
        if size <= 0:
            raise InvalidParameter("size must be > 0")
        if not 0 < width_fraction < 1:
            raise InvalidParameter("width_fraction must be in (0, 1)")
        self.size = size
        self._half_width = size * width_fraction / 2.0

    def support(self) -> Tuple[float, float]:
        return (self.size - self._half_width, self.size + self._half_width)

    def pdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        h = self._half_width
        peak = 1.0 / h  # triangle of base 2h and height 1/h integrates to 1
        dens = peak * (1.0 - np.abs(t - self.size) / h)
        return np.clip(dens, 0.0, None)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.full(n, self.size)

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.size)

    def mean(self, grid_points: int = 2001) -> float:
        return self.size
