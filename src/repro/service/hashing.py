"""Canonical spec hashing: the content address of a scenario.

Every entry of the result store (:mod:`repro.service.store`) and every
job of the service queue (:mod:`repro.service.queue`) is keyed by the
sha256 of a :class:`~repro.scenarios.specs.Scenario`'s **canonical
JSON** — the one stable byte string all equal scenarios share:

* keys sorted, separators minimal, ASCII-only output;
* numbers normalised so hashing agrees with dataclass equality
  (``SimulationSpec(horizon=100) == SimulationSpec(horizon=100.0)``
  must hash identically): integral floats collapse to ints, ``-0.0``
  collapses to ``0``, and non-finite floats are rejected outright
  (they have no JSON form, so they could never round-trip anyway);
* the digest is salted with the scenario schema version *and* the
  artifact schema version, so changing either the spec layout or the
  shape of stored results retires every old store entry cleanly —
  stale cache entries become unreachable instead of wrong.

The functions here are dependency leaves (stdlib + the two version
constants); :meth:`Scenario.content_hash
<repro.scenarios.specs.Scenario.content_hash>` is a thin wrapper over
:func:`scenario_content_hash`.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import abc
from typing import Any, List, Mapping

from ..errors import ScenarioError
from ..scenarios.specs import SCHEMA_VERSION as SPEC_SCHEMA_VERSION

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "canonical_json",
    "content_hash",
    "point_hash",
    "scenario_content_hash",
]

#: Version of the serialised result artifacts (``ScenarioResult`` /
#: ``Trajectory`` / ``AttackReport`` documents). Bump when their layout
#: changes: the hash salt below then invalidates every store entry.
#: v2: upfront-fee revenue fields in SimulationMetrics / AttackReport.
ARTIFACT_SCHEMA_VERSION = 2

#: Every digest starts with this, so spec- or artifact-schema bumps
#: cleanly retire all previously stored results.
_HASH_SALT = (
    f"repro/spec/v{SPEC_SCHEMA_VERSION}/artifacts/v{ARTIFACT_SCHEMA_VERSION}\n"
)


class _NotCanonical(Exception):
    """A value outside the canonical JSON space.

    The message is ``before + location + after``; ``path`` gathers the
    keys and indices above the value (innermost first) as the exception
    propagates, so the location string is built only for a failure.
    """

    def __init__(self, before: str, after: str = "") -> None:
        super().__init__(before)
        self.before = before
        self.after = after
        self.path: List[str] = []


def _normalise(value: Any, allow_non_finite: bool = False) -> Any:
    """Reduce ``value`` to the canonical JSON value space.

    ``allow_non_finite`` admits ``inf``/``-inf``/``nan`` floats (the
    store's *payload* domain: result documents may carry them, e.g. the
    ``-inf`` objective of an infeasible greedy prefix, and Python's JSON
    round-trips them as stable ``Infinity``/``NaN`` tokens). The *hash*
    domain stays strict: scenario specs and sweep points must be finite.

    Raises:
        ScenarioError: on non-JSON types, and (unless allowed) on
            non-finite floats, naming the value's location
            (``document.graph.nodes[3]``).
    """
    try:
        return _canonical(value, allow_non_finite)
    except _NotCanonical as exc:
        where = "document" + "".join(reversed(exc.path))
        raise ScenarioError(exc.before + where + exc.after) from None


def _canonical(value: Any, allow_non_finite: bool) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            if allow_non_finite:
                return value
            raise _NotCanonical(
                f"non-finite float {value!r} at ", " has no canonical JSON form"
            )
        # Collapse integral floats (and -0.0) to ints so the hash agrees
        # with numeric equality; 2**53 bounds exact float integrality.
        if value.is_integer() and abs(value) <= 2.0**53:
            return int(value)
        return value
    # abc.Mapping, not typing.Mapping: isinstance against the typing alias
    # is ~3x slower, and results hold thousands of mappings and lists.
    if isinstance(value, abc.Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise _NotCanonical(f"non-string mapping key {key!r} at ")
            try:
                out[key] = _canonical(item, allow_non_finite)
            except _NotCanonical as exc:
                exc.path.append(f".{key}")
                raise
        return out
    if isinstance(value, (list, tuple)):
        out_list = []
        for index, item in enumerate(value):
            try:
                out_list.append(_canonical(item, allow_non_finite))
            except _NotCanonical as exc:
                exc.path.append(f"[{index}]")
                raise
        return out_list
    raise _NotCanonical(
        f"value of type {type(value).__name__} at ", " is not JSON-serialisable"
    )


def canonical_json(document: Any, allow_non_finite: bool = False) -> str:
    """The one canonical JSON text of ``document``.

    Sorted keys, minimal separators, ASCII escapes, normalised numbers —
    two documents produce the same string iff they are equal under the
    store's notion of identity. With ``allow_non_finite``, inf/nan floats
    serialise as Python's ``Infinity``/``-Infinity``/``NaN`` tokens
    (deterministic, and ``json.loads`` parses them back).
    """
    return _dumps(
        _normalise(document, allow_non_finite=allow_non_finite),
        allow_non_finite,
    )


def _dumps(normalised: Any, allow_non_finite: bool = False) -> str:
    """The canonical text of an already-normalised value."""
    return json.dumps(
        normalised,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=allow_non_finite,
    )


def _salted_digest(normalised: Any) -> str:
    """Version-salted sha256 hex digest of an already-normalised value."""
    digest = hashlib.sha256()
    digest.update(_HASH_SALT.encode("ascii"))
    digest.update(_dumps(normalised).encode("utf-8"))
    return digest.hexdigest()


def content_hash(document: Any) -> str:
    """Version-salted sha256 hex digest of ``document``'s canonical JSON."""
    return _salted_digest(_normalise(document))


def scenario_content_hash(scenario_document: Mapping[str, Any]) -> str:
    """Content address of one scenario ``to_dict`` document.

    The whole document participates — including ``name`` and ``seed`` —
    so a hash names one exact, reproducible experiment record and the
    stored result can be replayed from the hash alone.
    """
    if not isinstance(scenario_document, Mapping):
        raise ScenarioError(
            "scenario_content_hash expects a Scenario.to_dict() mapping, "
            f"got {type(scenario_document).__name__}"
        )
    # Normalised once: the wrapper adds one string key, which is
    # canonical already, and errors name locations inside the document.
    return _salted_digest({"scenario": _normalise(dict(scenario_document))})


def point_hash(namespace: str, point: Mapping[str, Any]) -> str:
    """Content address of one generic sweep point under ``namespace``.

    The cache-aware :func:`repro.analysis.sweeps.run_sweep` keys rows of
    callable-per-point sweeps this way: the namespace names the evaluator
    (and must change when its semantics do), the point is the kwargs.
    """
    if not isinstance(namespace, str) or not namespace:
        raise ScenarioError("point_hash namespace must be a non-empty string")
    return _salted_digest({"namespace": namespace, "point": _normalise(dict(point))})
