"""Grandfathered-finding baseline: commit the debt, block the growth.

A baseline entry pins a known finding by ``(path, rule, stripped source
line)`` plus an occurrence count — line numbers are deliberately not part
of the key, so unrelated edits above a grandfathered finding do not churn
the file. ``python -m repro lint --write-baseline`` regenerates it from
the current tree; CI then fails on any finding *not* covered by the
committed baseline.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from ..determinism import ordered_sum
from ..errors import ReproError
from .findings import Finding

__all__ = ["BASELINE_VERSION", "Baseline", "DEFAULT_BASELINE_PATH"]

BASELINE_VERSION = 1
DEFAULT_BASELINE_PATH = ".reprolint-baseline.json"

_Key = Tuple[str, str, str]


class Baseline:
    """A multiset of grandfathered findings."""

    def __init__(self, counts: Dict[_Key, int]) -> None:
        self._counts = dict(counts)

    def __len__(self) -> int:
        return ordered_sum(self._counts.values())

    @staticmethod
    def _key(finding: Finding) -> _Key:
        return (finding.path, finding.rule, finding.content)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(Counter(cls._key(f) for f in findings))

    def split(
        self, findings: List[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Partition ``findings`` into ``(new, baselined)``.

        Each baseline entry absorbs at most its recorded count, in
        source order, so *adding* an occurrence of a grandfathered
        pattern still fails the lint.
        """
        budget = dict(self._counts)
        new: List[Finding] = []
        baselined: List[Finding] = []
        for finding in findings:
            key = self._key(finding)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        return new, baselined

    # -- persistence ---------------------------------------------------------

    def to_document(self) -> Dict:
        entries = [
            {"path": path, "rule": rule, "content": content, "count": count}
            for (path, rule, content), count in sorted(self._counts.items())
            if count > 0
        ]
        return {"version": BASELINE_VERSION, "entries": entries}

    @classmethod
    def from_document(cls, document: Dict) -> "Baseline":
        if not isinstance(document, dict):
            raise ReproError("baseline document must be a JSON object")
        version = document.get("version")
        if version != BASELINE_VERSION:
            raise ReproError(
                f"unsupported baseline version {version!r} "
                f"(expected {BASELINE_VERSION})"
            )
        counts: Dict[_Key, int] = {}
        for entry in document.get("entries", []):
            try:
                key = (
                    str(entry["path"]),
                    str(entry["rule"]),
                    str(entry["content"]),
                )
                count = int(entry.get("count", 1))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(f"malformed baseline entry {entry!r}") from exc
            counts[key] = counts.get(key, 0) + count
        return cls(counts)

    def save(self, path: Path) -> None:
        path.write_text(
            json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ReproError(f"cannot read baseline {path}: {exc}") from exc
        except ValueError as exc:
            raise ReproError(f"baseline {path} is not valid JSON: {exc}") from exc
        return cls.from_document(document)
