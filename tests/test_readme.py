"""Every ``from repro... import ...`` in the README's python blocks runs.

A deleted or renamed name that the README still documents fails here,
not in a reader's first session.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_IMPORT = re.compile(
    r"^from repro[\w.]* import (?:\([^)]*\)|[^\n]*)", re.MULTILINE
)


def _imports():
    blocks = _BLOCK.findall(README.read_text(encoding="utf-8"))
    return [
        statement for block in blocks for statement in _IMPORT.findall(block)
    ]


IMPORTS = _imports()


def test_readme_has_repro_imports():
    assert len(IMPORTS) >= 5


@pytest.mark.parametrize(
    "statement", IMPORTS, ids=[" ".join(s.split()) for s in IMPORTS]
)
def test_readme_import_runs(statement):
    exec(compile(statement, str(README), "exec"), {})
