"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library errors without also
swallowing programming mistakes such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """A structural problem with a payment channel network graph."""


class NodeNotFound(GraphError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the channel graph")
        self.node = node


class ChannelNotFound(GraphError):
    """A referenced channel does not exist in the graph."""

    def __init__(self, u: object, v: object, channel_id: object = None) -> None:
        suffix = "" if channel_id is None else f" (channel id {channel_id!r})"
        super().__init__(f"no channel between {u!r} and {v!r}{suffix}")
        self.endpoints = (u, v)
        self.channel_id = channel_id


class DuplicateChannel(GraphError):
    """A channel with the same identifier already exists."""


class InsufficientBalance(ReproError):
    """A payment exceeds the sender-side balance of a channel."""

    def __init__(self, available: float, requested: float) -> None:
        super().__init__(
            f"payment of {requested} exceeds available balance {available}"
        )
        self.available = available
        self.requested = requested


class RoutingError(ReproError):
    """No feasible route exists for a payment."""


class HtlcError(ReproError):
    """An HTLC operation violated the protocol state machine."""


class BudgetExceeded(ReproError):
    """A strategy violates the joining user's budget constraint."""

    def __init__(self, cost: float, budget: float) -> None:
        super().__init__(f"strategy costs {cost} which exceeds budget {budget}")
        self.cost = cost
        self.budget = budget


class InvalidParameter(ReproError):
    """A model parameter is outside its valid domain."""


class SnapshotFormatError(ReproError):
    """A network snapshot file could not be parsed."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ScenarioError(ReproError):
    """A scenario specification is malformed or cannot be executed."""


class ServiceError(ReproError):
    """A failure in the scenario service layer (store, job queue, daemon)."""


class UnknownPluginError(ScenarioError):
    """A scenario references a plugin key no registry entry matches."""

    def __init__(self, registry: str, key: str, known: object = ()) -> None:
        names = ", ".join(sorted(str(k) for k in known)) or "<none>"
        super().__init__(
            f"unknown {registry} {key!r}; registered: {names}"
        )
        self.registry = registry
        self.key = key
