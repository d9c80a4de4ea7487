"""Suppression comments and the grandfathered-finding baseline."""

from pathlib import Path

import pytest

from repro.devtools import Baseline, lint_file, lint_paths
from repro.devtools.rules import RULES
from repro.errors import ReproError

FIXTURES = Path(__file__).parent / "fixtures"


def _write(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    return path


def _all_rules():
    return [RULES.get(rule_id) for rule_id in RULES]


class TestSuppression:
    def test_same_line_comment_suppresses_the_named_rule(self, tmp_path):
        path = _write(
            tmp_path,
            "import time\n"
            "t = time.time()  # reprolint: disable=RPR005\n",
        )
        findings, suppressed = lint_file(path, _all_rules())
        assert findings == []
        assert len(suppressed) == 1
        assert suppressed[0].rule == "RPR005"

    def test_unrelated_rule_id_does_not_suppress(self, tmp_path):
        path = _write(
            tmp_path,
            "import time\n"
            "t = time.time()  # reprolint: disable=RPR001\n",
        )
        findings, suppressed = lint_file(path, _all_rules())
        assert [finding.rule for finding in findings] == ["RPR005"]
        assert suppressed == []

    def test_comma_separated_ids(self, tmp_path):
        path = _write(
            tmp_path,
            "import time\n"
            "import random\n"
            "t = time.time() + random.random()"
            "  # reprolint: disable=RPR001, RPR005\n",
        )
        findings, suppressed = lint_file(path, _all_rules())
        assert findings == []
        assert {finding.rule for finding in suppressed} == {"RPR001", "RPR005"}


class TestBaseline:
    def test_round_trip_absorbs_all_findings(self, tmp_path):
        result = lint_paths([str(FIXTURES)])
        assert result.findings
        baseline = Baseline.from_findings(result.findings)
        target = tmp_path / "baseline.json"
        baseline.save(target)
        reloaded = Baseline.load(target)
        assert len(reloaded) == len(result.findings)

        again = lint_paths([str(FIXTURES)], baseline=reloaded)
        assert again.findings == []
        assert len(again.baselined) == len(result.findings)

    def test_new_occurrence_beyond_count_still_fails(self, tmp_path):
        source = "import time\nt = time.time()\n"
        path = _write(tmp_path, source)
        findings, _ = lint_file(path, _all_rules())
        baseline = Baseline.from_findings(findings)

        # The same grandfathered line appearing one extra time is *new*
        # debt: only `count` occurrences are absorbed.
        path.write_text(source + "u = time.time()\n", encoding="utf-8")
        findings, _ = lint_file(path, _all_rules())
        new, baselined = baseline.split(findings)
        assert len(baselined) == 1
        assert len(new) == 1

    def test_baseline_is_line_number_independent(self, tmp_path):
        path = _write(tmp_path, "import time\nt = time.time()\n")
        findings, _ = lint_file(path, _all_rules())
        baseline = Baseline.from_findings(findings)

        # Unrelated code added above moves the finding; the baseline
        # still recognises it by (path, rule, content).
        path.write_text(
            "import time\n\n\nGREETING = 'hi'\n\nt = time.time()\n",
            encoding="utf-8",
        )
        findings, _ = lint_file(path, _all_rules())
        new, baselined = baseline.split(findings)
        assert new == []
        assert len(baselined) == 1

    def test_malformed_baseline_raises_repro_error(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(ReproError):
            Baseline.load(target)
        target.write_text("not json", encoding="utf-8")
        with pytest.raises(ReproError):
            Baseline.load(target)
