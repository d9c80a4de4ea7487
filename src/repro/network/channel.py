"""Bidirectional payment channels with per-direction balances.

A payment channel between two users ``u`` and ``v`` is a joint account
funded on-chain. Following Section II-A of the paper, we model it as two
directed edges, one per direction, whose *balances* bound the amount that
can be sent in that direction. A successful payment of size ``x`` from
``u`` to ``v`` moves ``x`` coins from ``u``'s balance to ``v``'s balance
(Figure 1 of the paper).
"""

from __future__ import annotations

import itertools
from typing import Hashable, Optional, Tuple

from ..errors import InsufficientBalance, InvalidParameter

__all__ = ["Channel", "DEFAULT_MAX_ACCEPTED_HTLCS", "MutationCounter"]

#: Lightning's BOLT-2 default for ``max_accepted_htlcs``: at most 483
#: concurrent in-flight HTLCs per channel direction. This is the finite
#: resource that slot-jamming attacks exhaust.
DEFAULT_MAX_ACCEPTED_HTLCS = 483

_channel_counter = itertools.count()


def _next_channel_id() -> str:
    return f"chan-{next(_channel_counter)}"


class MutationCounter:
    """A graph's mutation version, shared with its channels.

    A balance move bumps it through the channel, and the channel holds
    only the counter, never the graph: a dropped graph is freed by
    reference counting alone.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Channel:
    """A bidirectional payment channel with one balance per endpoint.

    The channel's *capacity* (``balance(u) + balance(v)``) is invariant
    under payments; only its split between the two sides moves.

    Args:
        u: first endpoint.
        v: second endpoint.
        balance_u: coins initially owned by ``u`` in the channel.
        balance_v: coins initially owned by ``v`` in the channel.
        channel_id: optional stable identifier; auto-generated when omitted.
        max_accepted_htlcs: per-direction cap on concurrent in-flight HTLCs
            (:data:`DEFAULT_MAX_ACCEPTED_HTLCS`, Lightning's 483). ``None``
            disables the cap.
    """

    __slots__ = (
        "u", "v", "_balances", "channel_id",
        "fee_base", "fee_rate", "upfront_base", "upfront_rate", "_counter",
        "max_accepted_htlcs",
    )

    def __init__(
        self,
        u: Hashable,
        v: Hashable,
        balance_u: float,
        balance_v: float = 0.0,
        channel_id: Optional[str] = None,
        fee_base: float = 0.0,
        fee_rate: float = 0.0,
        upfront_base: float = 0.0,
        upfront_rate: float = 0.0,
        max_accepted_htlcs: Optional[int] = DEFAULT_MAX_ACCEPTED_HTLCS,
    ) -> None:
        if u == v:
            raise InvalidParameter("a channel needs two distinct endpoints")
        if balance_u < 0 or balance_v < 0:
            raise InvalidParameter("channel balances must be non-negative")
        if fee_base < 0 or fee_rate < 0:
            raise InvalidParameter("channel fee params must be non-negative")
        if upfront_base < 0 or upfront_rate < 0:
            raise InvalidParameter(
                "channel upfront fee params must be non-negative"
            )
        if max_accepted_htlcs is not None and max_accepted_htlcs < 1:
            raise InvalidParameter(
                f"max_accepted_htlcs must be >= 1 or None, "
                f"got {max_accepted_htlcs}"
            )
        self.u = u
        self.v = v
        self._balances = {u: float(balance_u), v: float(balance_v)}
        self.max_accepted_htlcs = max_accepted_htlcs
        self.channel_id = channel_id if channel_id is not None else _next_channel_id()
        #: Per-channel fee policy (Lightning base/proportional form);
        #: surfaced in GraphView's fee arrays. Zero = policy-free channel.
        self.fee_base = float(fee_base)
        self.fee_rate = float(fee_rate)
        #: Per-channel upfront (per-attempt) fee side of the two-sided
        #: policy; surfaced in GraphView's upfront arrays alongside the
        #: success-side fee columns.
        self.upfront_base = float(upfront_base)
        self.upfront_rate = float(upfront_rate)
        # The owning ChannelGraph's counter, bumped when payments move
        # funds so its cached views are invalidated.
        self._counter: Optional[MutationCounter] = None

    # -- introspection ----------------------------------------------------

    @property
    def endpoints(self) -> Tuple[Hashable, Hashable]:
        """The two channel parties, in creation order."""
        return (self.u, self.v)

    @property
    def capacity(self) -> float:
        """Total coins locked in the channel (payment-invariant)."""
        return self._balances[self.u] + self._balances[self.v]

    def balance(self, node: Hashable) -> float:
        """Coins currently owned by ``node`` in this channel."""
        self._check_endpoint(node)
        return self._balances[node]

    def other(self, node: Hashable) -> Hashable:
        """The counterparty of ``node`` in this channel."""
        self._check_endpoint(node)
        return self.v if node == self.u else self.u

    def can_send(self, sender: Hashable, amount: float) -> bool:
        """Whether ``sender`` can currently push ``amount`` to the other side."""
        self._check_endpoint(sender)
        if amount < 0:
            raise InvalidParameter(f"payment amount must be >= 0, got {amount}")
        return self._balances[sender] >= amount

    # -- mutation ----------------------------------------------------------

    def send(self, sender: Hashable, amount: float) -> None:
        """Move ``amount`` from ``sender`` to the counterparty.

        Raises:
            InsufficientBalance: if ``sender``'s balance is below ``amount``.
        """
        if not self.can_send(sender, amount):
            raise InsufficientBalance(self._balances[sender], amount)
        receiver = self.other(sender)
        self._balances[sender] -= amount
        self._balances[receiver] += amount
        self._notify()

    def set_balances(self, balance_u: float, balance_v: float) -> None:
        """Overwrite both sides' balances in one step.

        The simulator runs on array state and writes the final split back
        here; unlike :meth:`send` this may change the capacity, so callers
        are responsible for conservation.
        """
        if balance_u < 0 or balance_v < 0:
            raise InvalidParameter("channel balances must be non-negative")
        self._balances[self.u] = float(balance_u)
        self._balances[self.v] = float(balance_v)
        self._notify()

    # -- helpers -----------------------------------------------------------

    def _notify(self) -> None:
        """Tell the owning graph a balance moved (view-cache invalidation)."""
        counter = self._counter
        if counter is not None:
            counter.value += 1

    def _check_endpoint(self, node: Hashable) -> None:
        if node not in self._balances:
            raise InvalidParameter(f"{node!r} is not an endpoint of {self!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Channel({self.u!r} <-> {self.v!r}, "
            f"balances=({self._balances[self.u]}, {self._balances[self.v]}), "
            f"id={self.channel_id!r})"
        )
