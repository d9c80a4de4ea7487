"""Content-addressed, crash-safe filesystem store for scenario results.

The store maps a scenario content hash (see
:mod:`repro.service.hashing`) to the canonical JSON text of the result
artifact — a :class:`~repro.scenarios.runner.ScenarioResult` document
(which embeds any :class:`~repro.attacks.report.AttackReport` or
:class:`~repro.evolution.trajectory.Trajectory`), or a bare sweep row.

Layout (under ``~/.cache/repro``, the ``REPRO_STORE`` env var, or an
explicit ``--store PATH``)::

    <root>/objects/<hash[:2]>/<hash>.json    # one entry per result
    <root>/quarantine/<basename>.<n>         # corrupted entries, kept

An entry (layout v2) is one sorted-JSON header line (``checksum``,
``kind``, ``schema_version``, ``spec_hash``), ``\n``, then the canonical
payload text byte for byte; ``checksum`` is the sha256 of those bytes.

Design invariants:

* **Atomic writes** — every entry is written to a same-directory temp
  file and published with ``os.replace``, so readers never observe a
  partial entry and concurrent writers of the same key are safe: a
  scenario's result is the same bytes whichever process computes it,
  so every writer of one key, a recompute after ``gc`` included,
  publishes identical bytes. This file is the
  *only* module allowed to open store paths for writing — reprolint rule
  RPR008 enforces it.
* **Verified reads** — :meth:`ResultStore.get_text` hashes exactly the
  payload bytes it serves and never parses or re-encodes them; an entry
  that fails the header or checksum check (v1 entries, one JSON object
  with no header line, included) moves to ``quarantine/`` and reads as
  ``None``, so a corrupted cache degrades to a recompute, never a crash
  and never a wrong result.
* **Stamps** — :meth:`ResultStore.put_text`,
  :meth:`ResultStore.get_stamped` and :meth:`ResultStore.freshen` return
  the entry's :data:`Stamp`, its ``os.stat`` identity ``(st_ino,
  st_size, st_mtime_ns)`` right after this process set its mtime to an
  explicit nanosecond. A caller that keeps a verified text
  in memory may serve it again while :meth:`ResultStore.freshen` finds
  the same stamp; an entry evicted, replaced or rewritten since then
  (a new inode, size or mtime) reads ``None`` there, and the caller
  falls back to :meth:`ResultStore.get_text`, which re-verifies and
  quarantines. On a filesystem whose mtimes are coarser than the clock
  every stamp mismatches, so every read re-verifies.
* **LRU eviction** — reads freshen the entry's mtime (best-effort);
  :meth:`ResultStore.gc` drops least-recently-used entries until the
  configured entry/byte bounds hold.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..determinism import ordered_sum
from ..errors import ServiceError
from .hashing import canonical_json

__all__ = [
    "DEFAULT_STORE_ENV",
    "ResultStore",
    "Stamp",
    "StoreStats",
    "default_store_path",
]

#: Environment variable overriding the default store location (the
#: pytest suite points it at a per-test ``tmp_path``).
DEFAULT_STORE_ENV = "REPRO_STORE"

#: Layout version of the on-disk entry; mismatched entries quarantine.
#: v2: header line + verbatim canonical payload text (v1: one JSON object).
STORE_SCHEMA_VERSION = 2

_HEX_DIGITS = frozenset("0123456789abcdef")

#: ``(st_ino, st_size, st_mtime_ns)`` of one entry file, as this process
#: last wrote, verified or freshened it.
Stamp = Tuple[int, int, int]


def default_store_path() -> Path:
    """``$REPRO_STORE`` when set, else ``~/.cache/repro``."""
    override = os.environ.get(DEFAULT_STORE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _freshen_mtime(path: Path, stat: os.stat_result) -> Stamp:
    """Set ``path``'s times to now, to the nanosecond, and return its stamp.

    ``stat`` is the file's stat from before. An explicit time (not the
    kernel's coarse clock) makes a later same-size rewrite show as a new
    mtime. Best-effort: on failure the old stamp comes back.
    """
    # A file time is calendar time by nature: gc orders these mtimes
    # with the ones the kernel writes. No result depends on it.
    now = time.time_ns()  # reprolint: disable=RPR005
    try:
        os.utime(path, ns=(now, now))
    except OSError:  # raced with gc/quarantine, or not the file's owner
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)
    return (stat.st_ino, stat.st_size, now)


def _check_key(key: str) -> str:
    if (
        not isinstance(key, str)
        or len(key) != 64
        or not set(key) <= _HEX_DIGITS
    ):
        raise ServiceError(
            f"store keys are 64-char lowercase sha256 hex digests, got {key!r}"
        )
    return key


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of the store's footprint (``repro store stats``)."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "quarantined": self.quarantined,
        }


class ResultStore:
    """Filesystem result store, safe for concurrent multi-process use."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_store_path()
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._quarantine.mkdir(parents=True, exist_ok=True)
        self._tmp_counter = itertools.count()

    @classmethod
    def open(
        cls, source: Union["ResultStore", str, Path, None]
    ) -> "ResultStore":
        """Coerce ``source`` (store, path, or None = default) to a store."""
        if isinstance(source, ResultStore):
            return source
        return cls(source)

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (existing or not)."""
        key = _check_key(key)
        return self._objects / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        """All stored keys, sorted (stable across processes)."""
        for path in sorted(self._objects.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return ordered_sum(1 for _ in self.keys())

    # -- write path ----------------------------------------------------------

    def put(
        self, key: str, payload: Any, kind: str = "scenario-result"
    ) -> Any:
        """Atomically store ``payload`` under ``key``; returns the
        normalised payload as any later :meth:`get` will see it.

        The payload is normalised through its canonical JSON first, so
        what the caller keeps and what the store serves are structurally
        identical — the byte-identity the dedupe guarantee rests on.
        """
        # Payloads are result documents, which may legitimately carry
        # non-finite floats (e.g. -inf greedy prefix objectives); only
        # the *hash* domain (specs, points) must be strictly finite.
        text = canonical_json(payload, allow_non_finite=True)
        self.put_text(key, text, kind)
        return json.loads(text)

    def put_text(
        self, key: str, text: str, kind: str = "scenario-result"
    ) -> Stamp:
        """Atomically store the canonical payload ``text`` under ``key``.

        ``text`` must be :func:`canonical_json` output; it is written
        verbatim and later served byte for byte by :meth:`get_text`.
        Returns the published entry's stamp (see :meth:`freshen`).
        """
        path = self.path_for(key)
        payload = text.encode("utf-8")
        header = {"checksum": hashlib.sha256(payload).hexdigest(), "kind": kind,
                  "schema_version": STORE_SCHEMA_VERSION, "spec_hash": key}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        try:
            with tmp.open("wb") as handle:
                handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
                handle.write(payload)
                handle.flush()
                # os.replace keeps the inode and times, so the temp
                # file's stamp is the published entry's.
                stamp = _freshen_mtime(tmp, os.fstat(handle.fileno()))
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                tmp.unlink()
        return stamp

    # -- read path -----------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored payload document for ``key``, or ``None``.

        ``None`` means "recompute": the entry is absent, or it failed
        verification and was quarantined.
        """
        text = self.get_text(key)
        return None if text is None else json.loads(text)

    def get_text(self, key: str) -> Optional[str]:
        """The canonical payload text for ``key``, every byte of it
        checked against the header's sha256; or ``None`` (see :meth:`get`)."""
        found = self.get_stamped(key)
        return None if found is None else found[0]

    def get_stamped(self, key: str) -> Optional[Tuple[str, Stamp]]:
        """:meth:`get_text` plus the stamp of the entry it verified."""
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                raw = handle.read()
                # fstat the file that was read: a stamp never describes
                # an entry published after the read.
                stat = os.fstat(handle.fileno())
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine_entry(path, "unreadable")
            return None
        header_line, _, payload = raw.partition(b"\n")
        try:
            header = json.loads(header_line)
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            header = None
        if not (
            isinstance(header, dict)
            and header.get("schema_version") == STORE_SCHEMA_VERSION
            and header.get("spec_hash") == key
        ):
            self._quarantine_entry(path, "bad-header")
            return None
        if header.get("checksum") != hashlib.sha256(payload).hexdigest():
            self._quarantine_entry(path, "checksum-mismatch")
            return None
        return payload.decode("utf-8"), _freshen_mtime(path, stat)

    def freshen(self, key: str, stamp: Stamp) -> Optional[Stamp]:
        """Freshen ``key``'s entry if it still has ``stamp``.

        Returns the new stamp (the mtime moved to now, for LRU order), or
        ``None`` when the entry is gone or is no longer the file that
        ``stamp`` describes. One ``stat`` and one ``utime``: the entry is
        neither read nor hashed.
        """
        path = self.path_for(key)
        try:
            stat = os.stat(path)
        except OSError:
            return None
        if (stat.st_ino, stat.st_size, stat.st_mtime_ns) != stamp:
            return None
        return _freshen_mtime(path, stat)

    def _quarantine_entry(self, path: Path, reason: str) -> None:
        """Move a bad entry aside (never delete evidence, never raise)."""
        for attempt in itertools.count():
            target = self._quarantine / f"{path.name}.{reason}.{attempt}"
            if target.exists():
                continue
            try:
                os.replace(path, target)
            except FileNotFoundError:  # pragma: no cover - raced
                pass
            except OSError:  # pragma: no cover - cross-device fallback
                try:
                    path.unlink()
                except OSError:
                    pass
            return

    # -- maintenance ---------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether an entry existed."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for path in self._objects.glob("*/*.json"):
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - raced with eviction
                continue
            entries += 1
        quarantined = ordered_sum(1 for _ in self._quarantine.iterdir())
        return StoreStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total,
            quarantined=quarantined,
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[str]:
        """Evict least-recently-used entries until within bounds.

        Returns the evicted keys (may include entries another process
        already removed — eviction is idempotent).
        """
        if max_entries is not None and max_entries < 0:
            raise ServiceError("gc max_entries must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ServiceError("gc max_bytes must be >= 0")
        records = []
        for path in self._objects.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with eviction
                continue
            records.append((stat.st_mtime, path.name, path, stat.st_size))
        # Oldest first; name breaks mtime ties deterministically.
        records.sort()
        entries = len(records)
        total = ordered_sum(record[3] for record in records)
        evicted: List[str] = []
        for _, _, path, size in records:
            over_entries = max_entries is not None and entries > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - raced
                pass
            evicted.append(path.stem)
            entries -= 1
            total -= size
        return evicted
