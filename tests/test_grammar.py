"""Every Python file of the project parses as Python 3.10, the oldest
version CI runs.

This checks grammar only (``ast.parse`` with ``feature_version``), not
whether each stdlib or numpy API a file uses exists on 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))


def test_files_found():
    assert any(p.name == "autodiff.py" for p in FILES) and len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
