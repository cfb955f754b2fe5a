"""The start-up contract: ``import btp`` loads no submodule, and a command
loads only the modules it runs.

What is loaded is checked in a child interpreter, so that what this test
process has imported does not count.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import btp
import btp.cli
from btp.calibration import synthetic_shift_stack
from btp.trace import (
    ModelShape,
    PruningSchedule,
    PruningStage,
    TensorBlob,
    TokenLayout,
    make_manifest,
    write_trace,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# what calibrate never calls
NOT_CALIBRATE = ("btp.diversity", "btp.toymodel", "btp.selector", "btp.scoring",
                 "btp.oracles", "btp.costs", "btp.threads")
# the ``btp.`` submodules loaded, as the last line of stderr
PRINT_LOADED = ("import json, sys; "
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('btp.'))), "
                "file=sys.stderr)")
# runs ``main`` on its arguments and ends in sys.exit, as the installed
# ``btp`` script does, after printing what was loaded
RUN_MAIN = (f"import sys\nfrom btp.cli import main\ncode = main(sys.argv[1:])\n"
            f"{PRINT_LOADED}\nsys.exit(code)")


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _loaded(proc: subprocess.CompletedProcess) -> list[str]:
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_btp_loads_no_submodule():
    proc = _child(f"import btp\n{PRINT_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == []
    # a submodule still imports by name, and an unknown name is no attribute
    from btp import toymodel

    assert toymodel is importlib.import_module("btp.toymodel")
    with pytest.raises(AttributeError):
        btp.no_such_name


def test_calibrate_loads_only_what_it_runs(tmp_path, capsys):
    stack = synthetic_shift_stack(np.random.default_rng(0), num_layers=6, n_image=16, d=8,
                                  shifted={2: 9})
    layout = TokenLayout(n_system=0, n_image=16, n_text=0, grid_rows=4, grid_cols=4)
    blobs = {f"hidden_l{i}": TensorBlob.from_array(f"hidden_l{i}", m) for i, m in enumerate(stack)}
    trace = tmp_path / "trace"
    write_trace(trace, make_manifest(layout, ModelShape(layers=6, d=8, heads=1, m=16), blobs),
                blobs)
    proc = _child(RUN_MAIN, "calibrate", str(trace), "--lambdas", "0.6,1.0")
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    assert "btp.calibration" in loaded
    assert not set(NOT_CALIBRATE) & set(loaded)
    # the whole schedule reached stdout before the interpreter's exit
    assert btp.cli.main(["calibrate", str(trace), "--lambdas", "0.6,1.0"]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert json.loads(proc.stdout)["num_layers"] == 6


def _one_stage_inputs(tmp_path) -> tuple[str, str]:
    """A trace scored and selected at layer 1 of 2, and its one-stage schedule."""
    rng = np.random.default_rng(0)
    layout = TokenLayout(n_system=0, n_image=16, n_text=1, grid_rows=4, grid_cols=4)
    attn = rng.random(layout.total()) + 1e-3
    arrays = {"attn_l1": attn / attn.sum(), "hidden_l1": rng.standard_normal((16, 8))}
    blobs = {name: TensorBlob.from_array(name, a) for name, a in arrays.items()}
    trace = tmp_path / "trace"
    write_trace(trace, make_manifest(layout, ModelShape(layers=2, d=8, heads=1, m=16), blobs),
                blobs)
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(
        PruningSchedule(stages=(PruningStage(1, 0.5, 0.5),), num_layers=2).to_json_dict()
    ))
    return str(trace), str(schedule)


@pytest.mark.parametrize("command", ["select", "simulate", "cost", "oracle"])
def test_only_calibrate_loads_calibration(tmp_path, command):
    trace, schedule = _one_stage_inputs(tmp_path)
    argv = {
        "select": ["select", "--trace", trace, "--schedule", schedule],
        "simulate": ["simulate", "--schedule", schedule, "--layout", "0,16,1,4,4",
                     "--layers", "2", "--d", "8", "--heads", "1", "--mlp", "16"],
        "cost": ["cost", "--layout", "0,16,1,4,4", "--num-layers", "2", "--d", "8",
                 "--mlp", "16"],
        "oracle": ["oracle", "roundtrip", "--instances", "1"],
    }[command]
    proc = _child(RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "btp.calibration" not in _loaded(proc)
