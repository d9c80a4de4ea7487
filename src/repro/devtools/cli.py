"""``python -m repro lint`` — the reprolint command.

:mod:`repro.cli` defines the flags (so building the parser imports no
linter code) and calls :func:`run_lint` with the parsed arguments.

Exit contract (matching the repo CLI): 0 = clean tree, 2 = findings or
usage/library error (errors print one ``error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from .baseline import DEFAULT_BASELINE_PATH, Baseline
from .engine import LintResult, lint_paths
from .rules import RULES

__all__ = ["run_lint"]

#: Version stamp of the ``--format json`` document layout.
JSON_OUTPUT_VERSION = 1


def _resolve_rules(select: Optional[str]):
    if select is None:
        return [RULES.get(rule_id) for rule_id in RULES]
    return [RULES.get(token.strip()) for token in select.split(",") if token.strip()]


def _resolve_baseline(args: argparse.Namespace) -> Optional[Baseline]:
    if args.no_baseline or args.write_baseline:
        return None
    if args.baseline is not None:
        return Baseline.load(Path(args.baseline))
    default = Path(DEFAULT_BASELINE_PATH)
    if default.exists():
        return Baseline.load(default)
    return None


def _print_human(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.format())
    tail = (
        f"{len(result.findings)} finding(s) in {result.files} file(s)"
        f" ({len(result.baselined)} baselined,"
        f" {len(result.suppressed)} suppressed)"
    )
    print(tail)


def _print_json(result: LintResult) -> None:
    document = {
        "version": JSON_OUTPUT_VERSION,
        "files": result.files,
        "findings": [finding.to_dict() for finding in result.findings],
        "counts": {
            "findings": len(result.findings),
            "baselined": len(result.baselined),
            "suppressed": len(result.suppressed),
        },
    }
    print(json.dumps(document, indent=2, sort_keys=True))


def _list_rules() -> int:
    for rule_id in RULES:
        rule = RULES.get(rule_id)
        print(f"{rule_id}  {rule.title}")
        print(f"    {rule.description}")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    if args.list_rules:
        return _list_rules()
    rule_classes = _resolve_rules(args.select)
    baseline = _resolve_baseline(args)
    result = lint_paths(args.paths, rule_classes, baseline=baseline)
    if args.write_baseline:
        target = Path(args.baseline or DEFAULT_BASELINE_PATH)
        Baseline.from_findings(result.findings).save(target)
        print(
            f"wrote baseline {target} ({len(result.findings)} entr"
            f"{'y' if len(result.findings) == 1 else 'ies'})"
        )
        return 0
    if args.format == "json":
        _print_json(result)
    else:
        _print_human(result)
    return 0 if result.clean else 2
