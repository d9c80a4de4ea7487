"""Per-rule fixture tests: each fixture trips exactly its rule.

The second test of each pair is the "fails without it" demonstration the
rule catalogue promises: running the full rule set *minus* the rule under
test on its fixture yields zero findings — so every violation the fixture
encodes is caught by that rule and nothing else.
"""

from pathlib import Path

import pytest

from repro.devtools import RULES, lint_file, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = [
    ("RPR001", "rpr001_unseeded.py", 4),
    ("RPR002", "rpr002_view_write.py", 4),
    ("RPR003", "rpr003_artifact.py", 2),
    ("RPR004", "rpr004_deprecated.py", 2),
    ("RPR005", "rpr005_wall_clock.py", 3),
    ("RPR006", "rpr006_registration.py", 2),
    ("RPR007", "rpr007_mutable.py", 3),
    ("RPR008", "rpr008_store_write.py", 3),
    ("RPR009", "rpr009_clock.py", 3),
    ("RPR010", "rpr010_builtin_sum.py", 3),
]


def _all_rules():
    return [RULES.get(rule_id) for rule_id in RULES]


@pytest.mark.parametrize("rule_id,fixture,expected", RULE_FIXTURES)
def test_fixture_trips_exactly_its_rule(rule_id, fixture, expected):
    findings, suppressed = lint_file(FIXTURES / fixture, _all_rules())
    assert suppressed == []
    assert len(findings) == expected
    assert {finding.rule for finding in findings} == {rule_id}


@pytest.mark.parametrize("rule_id,fixture,expected", RULE_FIXTURES)
def test_fixture_passes_without_its_rule(rule_id, fixture, expected):
    remaining = [
        RULES.get(other) for other in RULES if other != rule_id
    ]
    findings, _ = lint_file(FIXTURES / fixture, remaining)
    assert findings == []


def test_clean_fixture_has_no_findings():
    findings, suppressed = lint_file(FIXTURES / "clean.py", _all_rules())
    assert findings == []
    assert suppressed == []


def test_finding_locations_are_plausible():
    findings, _ = lint_file(
        FIXTURES / "rpr005_wall_clock.py", [RULES.get("RPR005")]
    )
    assert all(finding.line > 1 for finding in findings)
    assert all("time" in finding.content or "datetime" in finding.content
               for finding in findings)


def test_syntax_error_reported_as_rpr000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    findings, _ = lint_file(bad, _all_rules())
    assert len(findings) == 1
    assert findings[0].rule == "RPR000"
    assert "syntax error" in findings[0].message


def test_lint_paths_walks_directories():
    result = lint_paths([str(FIXTURES)])
    assert result.files == len(list(FIXTURES.glob("*.py")))
    tripped = {finding.rule for finding in result.findings}
    assert tripped == {rule_id for rule_id, _, _ in RULE_FIXTURES}


def test_rule_registry_is_extensible():
    # The registry idiom of the scenario plugins, reused: registering the
    # same class twice is idempotent, and the catalogue iterates sorted.
    rule_ids = list(RULES)
    assert rule_ids == sorted(rule_ids)
    assert rule_ids[:1] == ["RPR001"]
    cls = RULES.get("RPR001")
    assert RULES.register("RPR001")(cls) is cls


def test_rpr010_skips_a_sum_bound_by_an_import(tmp_path):
    source = tmp_path / "imported_sum.py"
    source.write_text(
        "from repro.determinism import ordered_sum as sum\n\n"
        "total = sum([0.1, 0.2])\n",
        encoding="utf-8",
    )
    findings, _ = lint_file(source, [RULES.get("RPR010")])
    assert findings == []
