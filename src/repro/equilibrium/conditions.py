"""Closed-form Nash-equilibrium conditions of Theorems 8 and 9.

These are the exact inequalities stated by the paper for the star graph,
implemented symbolically (generalised harmonic numbers) so that benches
can sweep the (n, s, a, b, l) parameter space and compare the closed-form
region against the simulated best-response region (bench E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import InvalidParameter

__all__ = [
    "harmonic",
    "StarNEConditions",
    "star_ne_conditions",
    "star_ne_closed_form",
    "star_ne_sufficient_thm9",
    "hub_diameter_bound",
]


def _harmonic_prefix(n: int, s: float) -> np.ndarray:
    """``H^s_1 .. H^s_n`` as one cumulative-sum array pass."""
    return np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -s)


def harmonic(n: int, s: float) -> float:
    """Generalised harmonic number ``H^s_n = Σ_{k=1}^n k^{-s}``."""
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return float(_harmonic_prefix(n, s)[-1])


@dataclass
class StarNEConditions:
    """Evaluation of Thm 8's three condition families for one point.

    ``margins`` hold ``rhs - lhs`` per inequality (non-negative = holds);
    the star is a closed-form NE when every margin is non-negative.
    """

    n: int
    s: float
    a: float
    b: float
    l: float
    condition1_margin: float = 0.0
    condition2_margins: List[Tuple[int, float]] = field(default_factory=list)
    condition3_margins: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        margins = [self.condition1_margin]
        margins += [m for _, m in self.condition2_margins]
        margins += [m for _, m in self.condition3_margins]
        return all(m >= -1e-12 for m in margins)


def star_ne_conditions(
    n: int, s: float, a: float, b: float, l: float
) -> StarNEConditions:
    """Evaluate Thm 8's conditions for a star with ``n`` leaves.

    Conditions (paper numbering):

    1. ``a / H^s_n <= 2^s * l``
    2. ``b * i/2 * (H^s_{i+1} - 1 - 2^{-s}) / H^s_n
       + a * (H^s_{i+1} - 1) / H^s_n <= l * i``           for 2 <= i <= n-1
    3. ``b * i/2 * (H^s_n - 1 - 2^{-s}) / H^s_n
       + a * (H^s_{i+1} - 2) / H^s_n <= l * (i - 1)``     for 2 <= i <= n-1
    """
    if n < 2:
        raise InvalidParameter("Thm 8 requires at least 2 leaves")
    prefix = _harmonic_prefix(n, s)
    hn = float(prefix[-1])
    two_pow = 2.0**s
    result = StarNEConditions(n=n, s=s, a=a, b=b, l=l)
    result.condition1_margin = two_pow * l - a / hn
    if n > 2:
        # Both condition families for all i = 2..n-1 in one array pass;
        # prefix[i] = H^s_{i+1} (0-based cumulative sums).
        i = np.arange(2, n, dtype=np.float64)
        hi1 = prefix[2:n]
        lhs2 = b * (i / 2.0) * (hi1 - 1.0 - 1.0 / two_pow) / hn + a * (hi1 - 1.0) / hn
        lhs3 = b * (i / 2.0) * (hn - 1.0 - 1.0 / two_pow) / hn + a * (hi1 - 2.0) / hn
        margins2 = l * i - lhs2
        margins3 = l * (i - 1.0) - lhs3
        result.condition2_margins.extend(
            (int(k), float(m)) for k, m in zip(i, margins2)
        )
        result.condition3_margins.extend(
            (int(k), float(m)) for k, m in zip(i, margins3)
        )
    return result


def star_ne_closed_form(n: int, s: float, a: float, b: float, l: float) -> bool:
    """True when Thm 8 certifies the star with ``n`` leaves as a NE."""
    return star_ne_conditions(n, s, a, b, l).holds


def star_ne_sufficient_thm9(
    n: int, s: float, a: float, b: float, l: float
) -> bool:
    """Thm 9's simpler sufficient condition: ``s >= 2`` and
    ``a/H^s_n <= l`` and ``b/H^s_n <= l`` (equal edge costs assumed)."""
    if n < 2:
        return False
    if s < 2:
        return False
    hn = harmonic(n, s)
    return a / hn <= l + 1e-12 and b / hn <= l + 1e-12


def hub_diameter_bound(
    onchain_cost: float,
    epsilon: float,
    lambda_e: float,
    fee: float,
    p_min: float,
    total_tx_rate: float,
) -> float:
    """Thm 6's bound: ``d <= 2 * ((C+ε)/2 - λ_e f) / (p_min N f) + 1``.

    Raises:
        InvalidParameter: when ``p_min * N * f`` is not positive (the bound
            is vacuous without traffic crossing the middle of the path).
    """
    denominator = p_min * total_tx_rate * fee
    if denominator <= 0:
        raise InvalidParameter(
            "p_min * N * f must be > 0 for Thm 6's bound to be meaningful"
        )
    numerator = (onchain_cost + epsilon) / 2.0 - lambda_e * fee
    return 2.0 * numerator / denominator + 1.0
