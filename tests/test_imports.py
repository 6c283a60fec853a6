"""Every name a ``qgkit`` module imports is read in that module or listed
in its ``__all__``: an import that nothing reads is dead code.

The one exception is ``cli``'s ``generate`` and ``pipeline_generate``.
``cli`` never calls them; they stay bound there because
``bench/spans.py`` traces them at that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qgkit"
MODULES = sorted(SRC.glob("*.py"))
# module -> the names it imports only for another module to find there
BOUND_FOR_TRACING = {"cli": {"generate", "pipeline_generate"}}


def _bound(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert {"cli", "generator", "autodiff"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = _bound(tree) - _read(tree) - _exported(tree)
    assert unread == BOUND_FOR_TRACING.get(path.stem, set())
