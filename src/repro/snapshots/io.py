"""Snapshot serialisation in an lnd ``describegraph``-compatible JSON shape.

The exported document has the two top-level arrays lnd emits::

    {
      "nodes":  [{"pub_key": "<node id>"} ...],
      "edges":  [{"channel_id": "...", "node1_pub": "...",
                  "node2_pub": "...", "capacity": "123",
                  "node1_balance": "61", "node2_balance": "62"}, ...]
    }

``node1_balance``/``node2_balance`` are our extension (real gossip does not
reveal balances); when absent, capacity is split evenly, which is the
standard assumption in LN research when only gossip data is available.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import SnapshotFormatError
from ..network.graph import ChannelGraph
from ..scenarios.registry import register_topology

__all__ = ["to_describegraph", "from_describegraph", "save_snapshot", "load_snapshot"]


def to_describegraph(graph: ChannelGraph) -> dict:
    """Serialise a :class:`ChannelGraph` into a describegraph-style dict."""
    nodes = [{"pub_key": str(node)} for node in graph.nodes]
    edges = []
    for channel in graph.channels:
        edges.append(
            {
                "channel_id": channel.channel_id,
                "node1_pub": str(channel.u),
                "node2_pub": str(channel.v),
                "capacity": repr(channel.capacity),
                "node1_balance": repr(channel.balance(channel.u)),
                "node2_balance": repr(channel.balance(channel.v)),
            }
        )
    return {"nodes": nodes, "edges": edges}


def from_describegraph(document: dict) -> ChannelGraph:
    """Parse a describegraph-style dict into a :class:`ChannelGraph`.

    Raises:
        SnapshotFormatError: on missing keys or unparsable numbers.
    """
    if not isinstance(document, dict):
        raise SnapshotFormatError("snapshot document must be a JSON object")
    graph = ChannelGraph()
    for entry in document.get("nodes", []):
        try:
            graph.add_node(entry["pub_key"])
        except (KeyError, TypeError) as exc:
            raise SnapshotFormatError(f"bad node entry {entry!r}") from exc
    for entry in document.get("edges", []):
        try:
            u = entry["node1_pub"]
            v = entry["node2_pub"]
            capacity = float(entry["capacity"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"bad edge entry {entry!r}") from exc
        if capacity < 0:
            raise SnapshotFormatError(f"negative capacity in {entry!r}")
        if "node1_balance" in entry or "node2_balance" in entry:
            try:
                balance_u = float(entry["node1_balance"])
                balance_v = float(entry["node2_balance"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotFormatError(
                    f"both balances required when either present: {entry!r}"
                ) from exc
            if abs((balance_u + balance_v) - capacity) > 1e-6 * max(capacity, 1.0):
                raise SnapshotFormatError(
                    f"balances {balance_u}+{balance_v} != capacity {capacity}"
                )
        else:
            balance_u = balance_v = capacity / 2.0
        graph.add_channel(
            u, v, balance_u, balance_v, channel_id=entry.get("channel_id")
        )
    return graph


def save_snapshot(graph: ChannelGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as describegraph JSON."""
    Path(path).write_text(json.dumps(to_describegraph(graph), indent=2))


@register_topology("file")
def load_snapshot(path: Union[str, Path]) -> ChannelGraph:
    """Load a describegraph JSON snapshot from ``path``.

    Raises:
        SnapshotFormatError: when the file cannot be read or is not JSON;
            the message names ``path``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SnapshotFormatError(
            f"cannot read snapshot {path}: {exc.strerror or exc}"
        ) from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"invalid JSON in {path}") from exc
    return from_describegraph(document)
