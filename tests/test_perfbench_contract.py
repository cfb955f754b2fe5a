"""Every name the benchmark harness looks up on ``btp`` still exists.

``perfbench/traced_cli.py`` replaces module attributes by name to time
them, and the other harness files import from ``btp``; a refactor that
renames or removes one of those names breaks the benchmark without
touching it.  The harness files are parsed, not imported, except for one
traced ``simulate`` run: the wrappers read attributes off the call's
arguments, so a changed signature breaks them too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_traced_simulate_reads_toymodel_call_shapes(tmp_path):
    schedule = {"num_layers": 6, "stages": [{"layer": 1, "retention": 0.5, "balance": 0.5}]}
    (tmp_path / "schedule.json").write_text(json.dumps(schedule))
    spans_path = tmp_path / "spans.json"
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), "0",
         "simulate", "--schedule", str(tmp_path / "schedule.json"),
         "--layout", "1,16,2,4,4", "--layers", "6", "--d", "16", "--heads", "2",
         "--mlp", "32", "--out", str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    steps = [s for s in spans if s["name"] == "toymodel.layer_step"]
    assert len(steps) == 4 * 6
    assert all(isinstance(s.get("n"), int) and isinstance(s.get("layer"), int) for s in steps)
    assert {s["layer"] for s in steps} == set(range(6))
    forwards = [s["pruned"] for s in spans if s["name"] == "toymodel.forward"]
    assert sorted(forwards) == [False, True, True, True]
