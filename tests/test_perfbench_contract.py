"""Every name the benchmark harness looks up on ``btp`` still exists.

``perfbench/traced_cli.py`` replaces module attributes by name to time
them, and the other harness files import from ``btp``; a refactor that
renames or removes one of those names breaks the benchmark without
touching it.  The harness files are parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# module aliases bound in traced_cli.main
WRAP_ALIASES = {
    "cli": "btp.cli",
    "sel": "btp.selector",
    "div": "btp.diversity",
    "toy": "btp.toymodel",
}


def _wrapped_names():
    tree = ast.parse((PERFBENCH / "traced_cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_wrap":
            alias, attr = node.args[0], node.args[1]
            found.append((WRAP_ALIASES[alias.id], attr.value))
    return found


def _imported_names():
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("btp"):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


WRAPPED = _wrapped_names()
IMPORTED = _imported_names()
NAMES = list(dict.fromkeys(WRAPPED + IMPORTED))


def test_harness_hooks_were_found():
    assert len(WRAPPED) >= 10
    assert ("btp.selector", "run_stage") in WRAPPED
    assert ("btp.costs", "ModelDims") in IMPORTED


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_harness_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
