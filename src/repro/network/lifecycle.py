"""Channel lifecycle: opening and closing cost realisation (Section II-C).

The paper's per-party channel cost ``C`` is an *expectation*: ``C/2`` for
the shared opening transaction plus ``C/2`` expected for closing, because
a channel closes unilaterally-by-u, unilaterally-by-v, or cooperatively
with equal probability (and a unilateral closer pays the whole closing
fee, a cooperative close splits it). This module samples concrete
lifecycles so the expectation can be verified empirically and so the
simulator can realise closure costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidParameter

__all__ = ["CloseMode", "ChannelLifecycle", "LifecycleCosts", "sample_close_mode"]


class CloseMode(enum.Enum):
    """How a channel ends (Section II-C's three equiprobable ways)."""

    UNILATERAL_U = "unilateral-u"
    UNILATERAL_V = "unilateral-v"
    COOPERATIVE = "cooperative"


def sample_close_mode(rng: np.random.Generator) -> CloseMode:
    """Draw one of the three close modes uniformly (the paper's model)."""
    return rng.choice(
        [CloseMode.UNILATERAL_U, CloseMode.UNILATERAL_V, CloseMode.COOPERATIVE]
    )


@dataclass(frozen=True)
class LifecycleCosts:
    """Realised on-chain costs of one channel lifetime, per party."""

    open_cost_u: float
    open_cost_v: float
    close_cost_u: float
    close_cost_v: float
    close_mode: CloseMode

    def total(self, party: str) -> float:
        if party == "u":
            return self.open_cost_u + self.close_cost_u
        if party == "v":
            return self.open_cost_v + self.close_cost_v
        raise InvalidParameter(f"party must be 'u' or 'v', got {party!r}")


class ChannelLifecycle:
    """Sample realised open/close costs for channels.

    Args:
        onchain_fee: the miner fee of one on-chain transaction (the
            paper's ``C`` is the fee of one transaction; a channel costs
            two transactions — open and close).
        seed: RNG seed.
    """

    def __init__(self, onchain_fee: float, seed: Optional[int] = None) -> None:
        if onchain_fee < 0:
            raise InvalidParameter("onchain_fee must be >= 0")
        self.onchain_fee = onchain_fee
        self._rng = np.random.default_rng(seed)

    def realise(self, close_mode: Optional[CloseMode] = None) -> LifecycleCosts:
        """One concrete lifecycle.

        Opening is always split equally (the paper assumes parties only
        agree to open on an equal split); the closing fee lands on the
        closer, or is split when cooperative.
        """
        mode = close_mode if close_mode is not None else sample_close_mode(self._rng)
        half = self.onchain_fee / 2.0
        if mode is CloseMode.UNILATERAL_U:
            close_u, close_v = self.onchain_fee, 0.0
        elif mode is CloseMode.UNILATERAL_V:
            close_u, close_v = 0.0, self.onchain_fee
        else:
            close_u, close_v = half, half
        return LifecycleCosts(
            open_cost_u=half,
            open_cost_v=half,
            close_cost_u=close_u,
            close_cost_v=close_v,
            close_mode=mode,
        )
