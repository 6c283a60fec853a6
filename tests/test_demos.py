"""The demos stay in step with the package.

Every name a demo imports from qgkit, or reads off an imported qgkit
module, must exist; this is checked from the source without running the
demo.  The three sub-second demos also run to completion."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def qgkit_references(tree: ast.Module):
    """(module, name) for each name imported from a qgkit module, or
    read as an attribute of a qgkit module bound by an import."""
    modules = {}  # local name -> qgkit module path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qgkit":
            for alias in node.names:
                yield node.module, alias.name
                if node.module == "qgkit":  # a submodule
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qgkit" and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


def exists(module: str, name: str) -> bool:
    if module == "qgkit" and importlib.util.find_spec(f"qgkit.{name}") is not None:
        return True
    return hasattr(importlib.import_module(module), name)


def test_demos_found():
    assert DEMOS, "no demos under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_names_exist(demo):
    refs = list(qgkit_references(ast.parse(demo.read_text(encoding="utf-8"))))
    assert refs
    missing = [f"{mod}.{name}" for mod, name in refs
               if not exists(mod, name)]
    assert not missing, f"{demo.name} uses names qgkit no longer has: {missing}"


@pytest.mark.parametrize("stem", ["01_autodiff", "02_data_pipeline", "05_metrics"])
def test_fast_demo_runs(stem):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{stem}.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
