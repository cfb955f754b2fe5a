"""Every name the benchmark harness looks up on ``btp`` still exists.

``perfbench/traced_cli.py`` replaces module attributes by name to time
them, and the other harness files import from ``btp``; a refactor that
renames or removes one of those names breaks the benchmark without
touching it.  The harness files are parsed, not imported, except for a
traced ``simulate``, a traced ``select`` and a traced ``calibrate`` run: the
wrappers read attributes off the call's arguments, so a changed signature
breaks them too.  ``perfbench/layers.py`` is imported to turn the traced
``simulate``'s spans into its toy-model metrics.
"""

import ast
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from btp.calibration import synthetic_shift_stack
from btp.costs import ModelDims
from btp.trace import ModelShape, TensorBlob, TokenLayout, make_manifest, write_trace

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


def _traced_run(tmp_path, btp_args):
    """Spans of ``btp_args`` run under traced_cli.py in a fresh interpreter."""
    spans_path = tmp_path / "spans.json"
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), "0", *btp_args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())


def _write_tiny_schedule(tmp_path):
    schedule = {"num_layers": 6, "stages": [{"layer": 1, "retention": 0.5, "balance": 0.5}]}
    (tmp_path / "schedule.json").write_text(json.dumps(schedule))
    return str(tmp_path / "schedule.json")


def _check_traced_simulate(tmp_path, diversity_flags):
    spans = _traced_run(tmp_path, [
        "simulate", "--schedule", _write_tiny_schedule(tmp_path),
        "--layout", "1,16,2,4,4", "--layers", "6", "--d", "16", "--heads", "2",
        "--mlp", "32", *diversity_flags, "--out", str(tmp_path / "out.csv"),
    ])
    steps = [s for s in spans if s["name"] == "toymodel.layer_step"]
    # the shared head's layers 0..1 (the stage is at layer 1), then layers
    # 2..5 of each of the four forwards, the unpruned one included
    assert len(steps) == 2 + 4 * 4
    assert all(isinstance(s.get("n"), int) and isinstance(s.get("layer"), int) for s in steps)
    assert {s["layer"] for s in steps} == set(range(6))
    forwards = [s["pruned"] for s in spans if s["name"] == "toymodel.forward"]
    assert sorted(forwards) == [False, True, True, True]
    by_id = {s["id"]: s for s in spans}
    for fwd in (s for s in spans if s["name"] == "toymodel.forward"):
        assert [s["layer"] for s in steps if s["parent"] == fwd["id"]] == [2, 3, 4, 5]
    head = [s for s in steps if by_id[s["parent"]]["name"] != "toymodel.forward"]
    assert [s["layer"] for s in head] == [0, 1]
    # the harness's per-layer metrics read these spans: none may crash or
    # come out infinite or NaN
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    metrics = layers.command_metrics(spans, None, ModelDims(num_layers=6, d=16, m=32))
    toy = {k: v for k, v in metrics.items() if k.startswith(("toymodel.", "costs."))}
    assert len(toy) == 7
    assert all(math.isfinite(v) for v in toy.values()), toy


def test_traced_simulate_reads_toymodel_call_shapes(tmp_path):
    _check_traced_simulate(tmp_path, [])


def test_traced_simulate_reads_toymodel_call_shapes_under_euclidean_diversity(tmp_path):
    # the simulate-toy workload's flags, which its --trace 1 run takes
    _check_traced_simulate(tmp_path, ["--semantic-metric", "euclidean",
                                      "--spatial-metric", "euclidean"])


def test_traced_select_reads_distance_matrix_shapes(tmp_path):
    rng = np.random.default_rng(0)
    layout = TokenLayout(n_system=1, n_image=16, n_text=2, grid_rows=4, grid_cols=4)
    arrays = {}
    for layer in (1, 3):  # the schedule runs a stage at layer 1 only
        row = rng.random(layout.total()) + 1e-3
        arrays[f"attn_l{layer}"] = (row / row.sum()).astype(np.float32)
        arrays[f"hidden_l{layer}"] = rng.standard_normal((16, 8)).astype(np.float32)
    blobs = {name: TensorBlob.from_array(name, arr) for name, arr in arrays.items()}
    dims = ModelShape(layers=6, d=8, heads=1, m=16)
    write_trace(tmp_path / "trace", make_manifest(layout, dims, blobs), blobs)
    spans = _traced_run(tmp_path, [
        "select", "--trace", str(tmp_path / "trace"), "--schedule", _write_tiny_schedule(tmp_path),
        "--out", str(tmp_path / "selection.json"),
    ])
    by_id = {s["id"]: s for s in spans}
    dists = [s for s in spans if s["name"] == "diversity.distance_matrix"]
    # keep 8 of 16, 4 by attention: the greedy's Gram over the other 12
    # candidates, then the diagnostics' Gram over the 8 kept
    assert [s["shape"] for s in dists] == [[12, 8], [8, 8]]
    assert [by_id[s["parent"]]["name"] for s in dists] == ["diversity.greedy", "selector.stage"]
    # select_stage runs inside run_stage, so its calls fall under the stage span
    for name in ("scoring.topk", "diversity.spatial_init", "diversity.greedy"):
        calls = [s for s in spans if s["name"] == name]
        assert calls and all(by_id[s["parent"]]["name"] == "selector.stage" for s in calls), name
    # scoring.used_ratio counts scored layers a stage then runs at
    assert [s["layer"] for s in spans if s["name"] == "scoring.importance"] == [1]
    # cmd_select calls both names through btp.cli, where the harness wraps them,
    # and every stage runs inside run_schedule
    provider, schedule = ([s for s in spans if s["name"] == name]
                          for name in ("selector.provider", "selector.run_schedule"))
    assert len(provider) == len(schedule) == 1
    stages = [s for s in spans if s["name"] == "selector.stage"]
    assert stages and all(s["parent"] == schedule[0]["id"] for s in stages)


def test_traced_calibrate_reads_snapshot_stack_shapes(tmp_path):
    layers, n_image, d = 6, 16, 8
    layout = TokenLayout(n_system=0, n_image=n_image, n_text=0, grid_rows=4, grid_cols=4)
    dims = ModelShape(layers=layers, d=d, heads=1, m=2 * d)
    traces = []
    for seed in range(2):
        stack = synthetic_shift_stack(
            np.random.default_rng(seed), num_layers=layers, n_image=n_image, d=d,
            shifted={2: 9},
        )
        blobs = {f"hidden_l{i}": TensorBlob.from_array(f"hidden_l{i}", m)
                 for i, m in enumerate(stack)}
        traces.append(str(tmp_path / f"trace{seed}"))
        write_trace(traces[-1], make_manifest(layout, dims, blobs), blobs)
    spans = _traced_run(tmp_path, [
        "calibrate", *traces, "--lambdas", "0.6,1.0", "--out", str(tmp_path / "schedule.json"),
    ])
    # one profile per trace, each over the [L+1, N, d] snapshot stack
    profiles = [s for s in spans if s["name"] == "calibration.shift_profile"]
    assert [s["shape"] for s in profiles] == [[layers + 1, n_image, d]] * len(traces)
    reads = [s for s in spans if s["name"] == "trace.read"]
    assert len(reads) == len(traces)
    assert all(len(s["tensors"]) == layers + 1 for s in reads)
