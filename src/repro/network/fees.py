"""Routing fee functions and two-sided fee policies.

The paper abstracts all intermediaries' fee policies into one global fee
function ``F : [0, T] -> R+`` (Section II-A); the joining-user model takes
its average ``f_avg`` as a parameter. This module provides the standard
fee-function shapes the simulator charges per hop: constant, the Lightning
``base + proportional`` linear form, and piecewise-linear.

:class:`FeePolicy` generalises a fee function into a *two-sided* policy
(the Unjamming countermeasure, Naumenko–Riard 2022): the **success** part
is a plain :class:`FeeFunction` charged on settle (today's behaviour), the
**upfront** part is a ``base + rate * amount`` charge collected per
*attempt* — paid for every hop an attempt offers, success or not, and
never refunded. Because jamming attacks are all attempts and no
settles, a non-zero upfront part taxes the attacker directly.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameter
from ..scenarios.registry import register_fee

__all__ = [
    "FeeFunction",
    "FeePolicy",
    "ConstantFee",
    "LinearFee",
    "PiecewiseLinearFee",
]


class FeeFunction(abc.ABC):
    """A per-hop routing fee as a function of the transaction amount."""

    @abc.abstractmethod
    def __call__(self, amount: float) -> float:
        """Fee charged for forwarding ``amount`` coins through one hop."""


@register_fee("constant")
class ConstantFee(FeeFunction):
    """A flat fee independent of the transaction amount."""

    def __init__(self, fee: float) -> None:
        if fee < 0:
            raise InvalidParameter(f"fee must be >= 0, got {fee}")
        self.fee = fee

    def __call__(self, amount: float) -> float:
        return self.fee

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantFee({self.fee})"


@register_fee("linear")
class LinearFee(FeeFunction):
    """Lightning-style fee: ``base + rate * amount``.

    In the real Lightning Network ``base`` is ``base_fee_msat`` and ``rate``
    is ``fee_rate_ppm / 1e6``; here both are plain coin units.
    """

    def __init__(self, base: float, rate: float) -> None:
        if base < 0 or rate < 0:
            raise InvalidParameter("base and rate must be >= 0")
        self.base = base
        self.rate = rate

    def __call__(self, amount: float) -> float:
        if amount < 0:
            raise InvalidParameter(f"amount must be >= 0, got {amount}")
        return self.base + self.rate * amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearFee(base={self.base}, rate={self.rate})"


@register_fee("piecewise")
class PiecewiseLinearFee(FeeFunction):
    """A fee defined by linear interpolation between ``(amount, fee)`` knots.

    Amounts outside the knot range are clamped to the boundary fees, which
    matches how node operators publish stepped fee schedules.
    """

    def __init__(self, knots: Sequence[Tuple[float, float]]) -> None:
        if len(knots) < 2:
            raise InvalidParameter("need at least two knots")
        xs = [k[0] for k in knots]
        ys = [k[1] for k in knots]
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise InvalidParameter("knot amounts must be strictly increasing")
        if any(y < 0 for y in ys):
            raise InvalidParameter("fees must be >= 0")
        self._xs = np.asarray(xs, dtype=float)
        self._ys = np.asarray(ys, dtype=float)

    def __call__(self, amount: float) -> float:
        return float(np.interp(amount, self._xs, self._ys))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        knots = list(zip(self._xs.tolist(), self._ys.tolist()))
        return f"PiecewiseLinearFee({knots})"


class FeePolicy(FeeFunction):
    """A two-sided fee: a success part plus an unconditional upfront part.

    The policy *is* a :class:`FeeFunction` — calling it evaluates the
    success part (0 when ``success`` is None) — so every consumer typed
    against ``FeeFunction`` (routers, engines) accepts a
    policy unchanged. The upfront side is only consulted by HTLC
    accounting: each hop a lock attempt actually places charges the
    receiving node ``upfront(hop_amount)`` from the sender, settle or not.

    Args:
        success: fee charged on settle, per hop (None = no success fee).
        upfront_base: flat upfront charge per attempted hop.
        upfront_rate: proportional upfront charge per attempted hop.
    """

    def __init__(
        self,
        success: Optional[FeeFunction] = None,
        upfront_base: float = 0.0,
        upfront_rate: float = 0.0,
    ) -> None:
        if upfront_base < 0 or upfront_rate < 0:
            raise InvalidParameter(
                "upfront_base and upfront_rate must be >= 0"
            )
        if success is not None and not isinstance(success, FeeFunction):
            raise InvalidParameter(
                f"success part must be a FeeFunction, "
                f"got {type(success).__name__}"
            )
        self.success = success
        self.upfront_base = float(upfront_base)
        self.upfront_rate = float(upfront_rate)

    @classmethod
    def of(cls, fee: Optional[FeeFunction]) -> "FeePolicy":
        """Normalise any fee into a policy (identity on policies)."""
        if isinstance(fee, FeePolicy):
            return fee
        return cls(success=fee)

    @property
    def has_upfront(self) -> bool:
        """Whether the upfront side charges anything at all."""
        return self.upfront_base > 0.0 or self.upfront_rate > 0.0

    def upfront(self, amount: float) -> float:
        """Unconditional charge for *attempting* to forward ``amount``."""
        if amount < 0:
            raise InvalidParameter(f"amount must be >= 0, got {amount}")
        return self.upfront_base + self.upfront_rate * amount

    def __call__(self, amount: float) -> float:
        if self.success is None:
            return 0.0
        return self.success(amount)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeePolicy(success={self.success!r}, "
            f"upfront_base={self.upfront_base}, "
            f"upfront_rate={self.upfront_rate})"
        )

