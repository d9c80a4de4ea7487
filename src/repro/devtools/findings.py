"""The lint finding artifact: frozen, JSON-serialisable, sortable."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: rule identifier (``"RPR001"``, ...; ``"RPR000"`` marks a
            file the linter could not parse).
        path: posix-style path of the offending file, relative to the
            lint invocation's working directory when possible.
        line / col: 1-based line and 0-based column of the offending
            node.
        message: human-readable description of the violation.
        content: the stripped source line — the baseline's
            line-number-independent anchor for grandfathered findings.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    content: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "content": self.content,
        }
