"""End-to-end command-line behavior, exit codes, and output determinism."""

import errno
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import btp.cli
import btp.oracles
import btp.threads
import btp.toymodel
from btp.calibration import synthetic_shift_stack
from btp.cli import main
from btp.oracles import roundtrip_suite, single_layer_suite
from btp.selector import ScheduleDriver
from btp.trace import (
    ModelShape,
    PruningSchedule,
    PruningStage,
    TensorBlob,
    TokenLayout,
    make_manifest,
    write_trace,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_calib_trace(tmp_path, name, seed, planted, num_layers=12, n_image=12, d=8):
    stack = synthetic_shift_stack(
        np.random.default_rng([seed]), num_layers=num_layers,
        n_image=n_image, d=d, shifted=planted,
    )
    return _write_stack_trace(tmp_path, name, stack)


def _write_stack_trace(tmp_path, name, stack):
    """Trace holding hidden_l<i> = stack[i], image tokens only, on a 1 x N grid."""
    layers, n_image, d = stack.shape[0] - 1, stack.shape[1], stack.shape[2]
    layout = TokenLayout(n_system=0, n_image=n_image, n_text=0, grid_rows=1, grid_cols=n_image)
    dims = ModelShape(layers=layers, d=d, heads=1, m=2 * d)
    blobs = {f"hidden_l{i}": TensorBlob.from_array(f"hidden_l{i}", m) for i, m in enumerate(stack)}
    path = tmp_path / name
    write_trace(path, make_manifest(layout, dims, blobs), blobs)
    return str(path)


def _write_select_trace(tmp_path, seed=0, nan_in=None, alias=None):
    """Trace with attn/hidden tensors at layers 1 and 3; ``nan_in`` names a
    tensor whose flat element 2 (an image column of an attention row)
    becomes NaN, and ``alias`` maps extra tensor names to the tensor whose
    reversed copy they hold."""
    rng = np.random.default_rng(seed)
    layout = TokenLayout(n_system=2, n_image=12, n_text=3, grid_rows=3, grid_cols=4)
    dims = ModelShape(layers=6, d=8, heads=2, m=16)
    arrays = {}
    for layer in (1, 3):
        row = rng.random(layout.total()) + 1e-3
        row /= row.sum()
        arrays[f"attn_l{layer}"] = row
        arrays[f"hidden_l{layer}"] = rng.standard_normal((layout.n_image, 8)).astype(np.float32)
    if nan_in is not None:
        arrays[nan_in].flat[2] = np.nan
    for name, source in (alias or {}).items():
        arrays[name] = arrays[source][::-1].copy()
    return _write_arrays_trace(tmp_path, layout, dims, arrays)


def _grid_trace_arrays(seed, side, layers, d=8):
    """Layout, shape and seeded attn/hidden arrays of a trace over a side x side
    image grid, with one system and two text tokens, at the given layers."""
    rng = np.random.default_rng(seed)
    layout = TokenLayout(n_system=1, n_image=side * side, n_text=2, grid_rows=side, grid_cols=side)
    dims = ModelShape(layers=6, d=d, heads=1, m=2 * d)
    arrays = {}
    for layer in layers:
        row = rng.random(layout.total()) + 1e-3
        row /= row.sum()
        arrays[f"attn_l{layer}"] = row
        arrays[f"hidden_l{layer}"] = rng.standard_normal((layout.n_image, d)).astype(np.float32)
    return layout, dims, arrays


def _write_arrays_trace(tmp_path, layout, dims, arrays):
    blobs = {name: TensorBlob.from_array(name, arr) for name, arr in arrays.items()}
    path = tmp_path / "trace"
    write_trace(path, make_manifest(layout, dims, blobs), blobs)
    return str(path)


def _write_schedule(tmp_path, stages, num_layers, name="schedule.json"):
    sched = PruningSchedule(
        stages=tuple(PruningStage(*s) for s in stages), num_layers=num_layers
    )
    path = tmp_path / name
    path.write_text(json.dumps(sched.to_json_dict()))
    return str(path)


# ---------------------------------------------------------------------------
# cost


def test_cost_unpruned_anchors(capsys):
    argv = ["cost", "--layout", "0,576,0,24,24", "--num-layers", "32",
            "--d", "4096", "--mlp", "11008"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["tflops"] == 3.81715218432
    assert payload["kv_bytes"] == 301989888
    assert payload["avg_tokens"] == 576.0
    assert payload["per_layer_tokens"] == [576] * 32
    assert payload["config"]["command"] == "cost"

    rerun_code, rerun_out, _ = _run(capsys, argv)
    assert rerun_code == 0 and rerun_out == out


def test_cost_with_schedule(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    code, out, _ = _run(capsys, [
        "cost", "--layout", "2,8,3,2,4", "--schedule", sched, "--d", "8", "--mlp", "16",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["per_layer_tokens"] == [13, 13, 9, 9]
    assert payload["avg_tokens"] == 6.0


def test_cost_requires_depth_without_schedule(capsys):
    code, _, err = _run(capsys, [
        "cost", "--layout", "0,4,0,2,2", "--d", "8", "--mlp", "16",
    ])
    assert code == 1
    assert err.startswith("error:") and "--num-layers" in err


# SHA-256 of the cost JSON on stdout as the two-pass cost model wrote it:
# the README's two commands, then a multi-stage schedule over system and
# text tokens at one byte per cached value
COST_JSON_SHA256 = {
    "readme-unpruned":
        "a611eb59ab316a7dc88660054314a29a392092b354a35b07e00ebc9f1e49c6b2",
    "readme-schedule":
        "be23431349ab96898a58d7926ae730c0a891c74a779ac4ab33898d9553aed151",
    "three-stages":
        "867383bccb7f3afcbd8422951ae7f46ab2e320eb7d10023d2a1bca2f68bbd723",
}
COST_ARGV = {
    "readme-unpruned": ["--layout", "0,576,0,24,24", "--num-layers", "32",
                        "--d", "4096", "--mlp", "11008"],
    "readme-schedule": ["--layout", "0,576,0,24,24", "--schedule", "schedule.json",
                        "--d", "4096", "--mlp", "11008"],
    "three-stages": ["--layout", "35,576,40,24,24", "--schedule", "three.json",
                     "--d", "5120", "--mlp", "13824", "--kv-bytes", "1"],
}


@pytest.mark.parametrize("case", sorted(COST_JSON_SHA256))
def test_cost_json_is_pinned(tmp_path, capsys, monkeypatch, case):
    _write_schedule(tmp_path, [(2, 0.5, 0.6), (6, 0.5, 0.8), (12, 0.5, 1.0)], num_layers=32)
    _write_schedule(tmp_path, [(1, 0.75, 0.2), (9, 0.4, 0.5), (27, 0.3, 1.0)],
                    num_layers=40, name="three.json")
    monkeypatch.chdir(tmp_path)  # the payload records the schedule path as given
    code, out, err = _run(capsys, ["cost", *COST_ARGV[case]])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COST_JSON_SHA256[case]


def test_cost_takes_one_depth_flag(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    code, out, err = _run(capsys, [
        "cost", "--layout", "2,8,3,2,4", "--schedule", sched, "--num-layers", "40",
        "--d", "8", "--mlp", "16",
    ])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--schedule" in err and "--num-layers" in err
    # an empty --schedule is a path that cannot be read, not a missing flag
    code, out, err = _run(capsys, [
        "cost", "--layout", "2,8,3,2,4", "--schedule", "", "--d", "8", "--mlp", "16",
    ])
    assert (code, out) == (2, "") and err.startswith("error:")


def test_zero_depth_is_refused(tmp_path, capsys):
    # the depth from --num-layers and from a schedule file meet one rule
    sched = tmp_path / "zero.json"
    sched.write_text(json.dumps({"num_layers": 0, "stages": []}))
    for argv in (
        ["cost", "--layout", "2,8,3,2,4", "--num-layers", "0", "--d", "8", "--mlp", "16"],
        ["cost", "--layout", "2,8,3,2,4", "--schedule", str(sched), "--d", "8", "--mlp", "16"],
        ["select", "--trace", _write_select_trace(tmp_path), "--schedule", str(sched)],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (1, "", "error: num_layers must be >= 1\n"), argv


def test_cost_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, [
        "cost", "--layout", "0,4,0,2,2", "--num-layers", "2",
        "--d", "8", "--mlp", "16", "--out", str(out_path),
    ])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["per_layer_tokens"] == [4, 4]


def test_cost_bad_layout_string(capsys):
    code, _, err = _run(capsys, [
        "cost", "--layout", "1,2,3", "--num-layers", "2", "--d", "8", "--mlp", "16",
    ])
    assert code == 1 and "layout" in err


# ---------------------------------------------------------------------------
# calibrate


CALIBRATE_TABLE = """\
shift profile over 3 trace(s), tau=0.93
layer  shifted
    0        0
    1        0
    2        0
    3       27 <- prune next layer
    4        0
    5        0
    6        0
    7       33 <- prune next layer
    8        0
    9        0
   10        0
   11        0
pruning layers: [4, 8]
"""


def test_calibrate_places_stages_after_peaks(tmp_path, capsys):
    traces = [
        _write_calib_trace(tmp_path, f"t{i}", seed=i, planted={3: 9, 7: 11})
        for i in range(3)
    ]
    out_path = tmp_path / "sched.json"
    argv = ["calibrate", *traces, "--lambdas", "0.6,1.0", "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert code == 0 and out == ""
    assert err == CALIBRATE_TABLE
    payload = json.loads(out_path.read_text())
    assert [s["layer"] for s in payload["stages"]] == [4, 8]
    assert [s["balance"] for s in payload["stages"]] == [0.6, 1.0]
    assert [s["retention"] for s in payload["stages"]] == [0.5, 0.5]
    assert payload["fallback"] is False
    counts = {p["layer"]: p["shifted_count"] for p in payload["profile"]}
    assert counts[3] == 27 and counts[7] == 33
    assert "pruning layers: [4, 8]" in err
    marked = [line for line in err.splitlines() if "<- prune next layer" in line]
    assert len(marked) == 2 and marked[0].split()[0] == "3"

    first_bytes = out_path.read_bytes()
    rerun_code, rerun_out, rerun_err = _run(capsys, argv)
    assert rerun_code == 0 and rerun_out == out and rerun_err == err
    assert out_path.read_bytes() == first_bytes

    # without --out, stdout is exactly the file's JSON
    code, out, err = _run(capsys, argv[:-2])
    assert code == 0 and out.encode() == first_bytes and err == CALIBRATE_TABLE
    assert json.loads(out)["stages"] == payload["stages"]


def test_calibrate_flat_profile_warns_and_fails(tmp_path, capsys):
    trace = _write_calib_trace(tmp_path, "flat", seed=9, planted={})
    code, out, err = _run(capsys, ["calibrate", trace, "--lambdas", "0.6,1.0"])
    assert code == 1
    assert err.endswith("warning: flat shift profile, fell back to even subdivision\n")
    assert "pruning layers: [4, 8]" in err
    payload = json.loads(out)
    assert payload["fallback"] is True
    assert [s["layer"] for s in payload["stages"]] == [4, 8]


def test_calibrate_rejects_more_stages_than_a_flat_profile_can_hold(tmp_path, capsys):
    # flat over 3 layers: even subdivision used to give layers [1, 2, 2]
    trace = _write_calib_trace(tmp_path, "flat", seed=9, planted={}, num_layers=3)
    code, out, err = _run(capsys, ["calibrate", trace, "--lambdas", "0.6,0.8,1.0"])
    assert (code, out) == (1, "")
    assert err == "error: cannot place 3 stages in 3 layers: layer 0 holds none, so at most 2 fit\n"
    code, out, err = _run(capsys, ["calibrate", trace, "--lambdas", "0.6,1.0", "--min-gap", "2"])
    assert (code, out) == (1, "")
    assert err == "error: could not place 2 layers with min_gap=2 in 3 layers\n"


def test_calibrate_starts_no_thread(tmp_path, capsys, monkeypatch):
    # 48 image rows of width 4096 make 3 row blocks; the walk over them is
    # one thread's, whatever BTP_THREADS says
    trace = _write_calib_trace(tmp_path, "t", seed=3, planted={5: 8}, n_image=48, d=4096)
    monkeypatch.setenv("BTP_THREADS", "4")
    outs = [tmp_path / "unpatched.json", tmp_path / "patched.json"]
    assert _run(capsys, ["calibrate", trace, "--out", str(outs[0])])[0] == 0

    def refuse(thread):
        raise RuntimeError(f"calibrate started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert _run(capsys, ["calibrate", trace, "--out", str(outs[1])])[0] == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_calibrate_maps_one_trace_at_a_time(tmp_path):
    # two traces of 40 MB each: the high-water RSS grows by one trace's
    # pages, not both
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status")
    n_image, d, num_layers = 576, 1024, 16
    layout = TokenLayout(n_system=0, n_image=n_image, n_text=0, grid_rows=24, grid_cols=24)
    dims = ModelShape(layers=num_layers, d=d, heads=1, m=2 * d)
    traces = []
    for t in range(2):
        rng = np.random.default_rng([47, t])
        state = rng.standard_normal((n_image, d), dtype=np.float32)
        blobs = {}
        for i in range(num_layers + 1):
            if i == 6:  # a shift peak at layer 5
                state[:100] = rng.standard_normal((100, d), dtype=np.float32)
            blobs[f"hidden_l{i}"] = TensorBlob.from_array(f"hidden_l{i}", state)
            state = state + np.float32(0.05) * rng.standard_normal((n_image, d), dtype=np.float32)
        path = tmp_path / f"t{t}"
        write_trace(path, make_manifest(layout, dims, blobs), blobs)
        traces.append(str(path))
    payload = (num_layers + 1) * n_image * d * 4
    launcher = (
        "import sys, btp.cli\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        line = next(l for l in fh if l.startswith(key + ':'))\n"
        "    return int(line.split()[1]) * 1024\n"
        "before = status('VmRSS')\n"
        "code = btp.cli.main(sys.argv[1:])\n"
        "print(code, before, status('VmHWM'))\n"
    )
    src = str(Path(btp.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["calibrate", *traces, "--lambdas", "1.0", "--out", str(tmp_path / "s.json")]
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, before, peak = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak - before < payload + (16 << 20), (
        f"high-water RSS grew by {(peak - before) / 2**20:.1f} MiB, "
        f"one trace is {payload / 2**20:.1f} MiB"
    )


def test_calibrate_argument_mismatches(tmp_path, capsys):
    trace = _write_calib_trace(tmp_path, "t", seed=2, planted={5: 8})
    code, _, err = _run(capsys, [
        "calibrate", trace, "--lambdas", "0.6,0.8,1.0", "--retentions", "0.5,0.6",
    ])
    assert code == 1 and "retentions" in err
    code, out, err = _run(capsys, ["calibrate", trace, "--retentions", "a,b"])
    assert (code, out) == (1, "")
    assert err == "error: expected a comma-separated float list, got 'a,b'\n"
    code, _, err = _run(capsys, [
        "calibrate", trace, "--lambdas", "llava7b", "--num-stages", "2",
    ])
    assert code == 1 and "--num-stages" in err


def test_calibrate_missing_trace_is_io_error(tmp_path, capsys):
    code, _, err = _run(capsys, ["calibrate", str(tmp_path / "absent")])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("shapes,message", [
    ({"hidden_l0": (12, 8), "hidden_l2": (12, 8)},
     "hidden snapshots must be contiguous from 0, got hidden_l0, hidden_l2"),
    ({"hidden_l0": (12, 8), "hidden_l1": (96,)},
     "tensor 'hidden_l1': expected a matrix, got shape (96,)"),
    ({"hidden_l0": (12, 8), "hidden_l1": (7, 8)},
     "tensor 'hidden_l1': 7 rows, want n_image=12 or the full sequence 15"),
    # np.stack used to raise a bare ValueError here
    ({"hidden_l0": (12, 8), "hidden_l1": (12, 9), "hidden_l2": (12, 8)},
     "hidden snapshot 1 has shape (12, 9), snapshot 0 has (12, 8)"),
    ({"attn_l0": (15,)}, "/t: no hidden_l<i> tensors in trace"),
], ids=["non-contiguous", "vector", "row-count", "width", "no-hidden"])
def test_calibrate_rejects_bad_hidden_tensors(tmp_path, capsys, shapes, message):
    rng = np.random.default_rng(3)
    layout = TokenLayout(n_system=1, n_image=12, n_text=2, grid_rows=3, grid_cols=4)
    blobs = {
        name: TensorBlob.from_array(name, rng.standard_normal(shape))
        for name, shape in shapes.items()
    }
    trace = tmp_path / "t"
    write_trace(trace, make_manifest(layout, ModelShape(2, 8, 1, 16), blobs), blobs)
    code, out, err = _run(capsys, ["calibrate", str(trace)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(message + "\n")


def test_calibrate_calib_size_limits_traces(tmp_path, capsys):
    traces = [
        _write_calib_trace(tmp_path, f"s{i}", seed=20 + i, planted={5: 8})
        for i in range(3)
    ]
    code, out, err = _run(capsys, ["calibrate", *traces, "--calib-size", "2"])
    assert code == 0
    assert "over 2 trace(s)" in err
    payload = json.loads(out)
    assert payload["config"]["traces"] == traces[:2]


# SHA-256 of the calibrate JSON as the float64-only shift profile wrote it:
# a token that the float32 filter decides on the wrong side of tau fails
# here
CALIBRATE_JSON_SHA256 = "25d19c77668d8c2671fc8fc5821421fca092e90a77bf08b586c6d732a9e88d56"


def test_calibrate_json_is_pinned(tmp_path, capsys, monkeypatch):
    _write_calib_trace(tmp_path, "a", seed=30, planted={3: 9, 7: 11})
    _write_calib_trace(tmp_path, "b", seed=31, planted={3: 5, 8: 12}, d=300)
    # every cosine is 1e-7 from tau, inside the float32 error bound, so
    # each token of this trace goes through the float64 sums
    _write_stack_trace(tmp_path, "c", synthetic_shift_stack(
        np.random.default_rng(32), num_layers=12, n_image=24, d=4096,
        shifted={3: 20, 7: 10}, stable_cos=0.93 + 1e-7, shift_cos=0.93 - 1e-7,
    ))
    monkeypatch.chdir(tmp_path)  # the payload records the paths as given
    code, _, _ = _run(capsys, [
        "calibrate", "a", "b", "c", "--lambdas", "0.6,1.0", "--out", "schedule.json",
    ])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "schedule.json").read_bytes()).hexdigest()
    assert digest == CALIBRATE_JSON_SHA256


# calibrate does not read BTP_THREADS: the message is the same under any value
@pytest.mark.parametrize("threads", ["1", "2"])
def test_calibrate_names_the_trace_of_a_bad_hidden_state(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("BTP_THREADS", threads)
    good = _write_calib_trace(tmp_path, "good", seed=5, planted={5: 8})
    stack = synthetic_shift_stack(
        np.random.default_rng(6), num_layers=12, n_image=40, d=2048, shifted={5: 8},
    )
    stack[4, 33, 7] = np.nan
    stack[6, 2] = 0.0  # a later snapshot: the NaN is named first
    stack[4, 35, 0] = np.inf
    bad = _write_stack_trace(tmp_path, "bad", stack)
    code, out, err = _run(capsys, ["calibrate", good, bad])
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: non-finite hidden state at snapshot 4, image token 33\n"

    stack[4, 33, 7] = stack[4, 35, 0] = 1.0
    zero = _write_stack_trace(tmp_path, "zero", stack)
    code, out, err = _run(capsys, ["calibrate", good, zero])
    assert (code, out) == (1, "")
    assert err == f"error: {zero}: zero-norm hidden state at snapshot 6, image token 2\n"


def test_calibrate_names_the_trace_of_a_layer_count_mismatch(tmp_path, capsys):
    first = _write_calib_trace(tmp_path, "first", seed=7, planted={5: 8})
    deeper = _write_calib_trace(tmp_path, "deeper", seed=8, planted={5: 8}, num_layers=13)
    code, out, err = _run(capsys, ["calibrate", first, first, deeper])
    assert (code, out) == (1, "")
    assert err == f"error: {deeper}: shift profile covers 13 layers, {first} covers 12\n"


@pytest.mark.parametrize("tau", ["0", "1", "1.5", "nan"])
def test_calibrate_rejects_tau_outside_the_unit_interval(tmp_path, capsys, tau):
    trace = _write_calib_trace(tmp_path, "t", seed=9, planted={5: 8})
    code, out, err = _run(capsys, ["calibrate", trace, "--tau", tau])
    assert (code, out) == (1, "")
    assert err == f"error: --tau must be in (0, 1), got {float(tau)}\n"


@pytest.mark.parametrize("size", ["0", "-1"])
def test_calibrate_rejects_calib_size_below_one(tmp_path, capsys, size):
    # a slice by -1 would silently drop the last trace
    traces = [_write_calib_trace(tmp_path, f"s{i}", seed=20 + i, planted={5: 8}) for i in range(2)]
    code, out, err = _run(capsys, ["calibrate", *traces, "--calib-size", size])
    assert code == 1 and out == ""
    assert err == f"error: --calib-size must be >= 1, got {size}\n"


# ---------------------------------------------------------------------------
# select


def test_select_reports_nested_stages(tmp_path, capsys):
    trace = _write_select_trace(tmp_path)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    out_path = tmp_path / "selection.json"
    argv = ["select", "--trace", trace, "--schedule", sched, "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert code == 0 and out == ""
    assert err == (
        "layer  kept  attn_mass  min_dist   sum_dist\n"
        "    1     6     0.4846    0.4508     16.268\n"
        "    3     3     0.3425    0.5030      1.764\n"
    )
    payload = json.loads(out_path.read_text())
    stages = payload["stages"]
    assert [s["layer"] for s in stages] == [1, 3]
    first, second = (set(s["kept_indices"]) for s in stages)
    assert len(first) == 6 and len(second) == 3 and second < first
    assert payload["config"]["seed_rule"] == "farthest_from_centroid"

    first_bytes = out_path.read_bytes()
    rerun_code, rerun_out, rerun_err = _run(capsys, argv)
    assert rerun_code == 0 and rerun_out == out and rerun_err == err
    assert out_path.read_bytes() == first_bytes

    # without --out, stdout is exactly the file's JSON
    code, out, rerun_err = _run(capsys, argv[:-2])
    assert code == 0 and out.encode() == first_bytes and rerun_err == err
    assert json.loads(out) == payload


def test_select_depth_mismatch(tmp_path, capsys):
    trace = _write_select_trace(tmp_path)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=5)
    code, _, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 1 and "5 layers" in err


@pytest.mark.parametrize("tensor,what", [
    ("hidden_l1", "hidden states"),
    ("attn_l3", "stage scores"),
])
def test_select_rejects_non_finite_stage_inputs(tmp_path, capsys, tensor, what):
    trace = _write_select_trace(tmp_path, nan_in=tensor)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.0), (3, 0.5, 1.0)], num_layers=6)
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    layer = tensor.rsplit("_l", 1)[1]
    assert code == 1 and out == ""
    assert err == f"error: layer {layer}: {what} contain non-finite values\n"


@pytest.mark.parametrize("shape", [(), (2,)], ids=["row", "per-head"])
def test_select_rejects_an_all_zero_attention_row(tmp_path, capsys, shape):
    # no softmax gives a zero row; scoring every token 0 would select on
    # diversity alone and report an attention mass of 0
    layout, dims, arrays = _grid_trace_arrays(0, side=4, layers=(1, 3))
    arrays["attn_l3"] = np.zeros((*shape, layout.total()))
    trace = _write_arrays_trace(tmp_path, layout, dims, arrays)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert (code, out) == (1, "")
    assert err == "error: layer 3: last-token attention row sums to 0, not softmaxed\n"


def test_select_scores_every_scheduled_layer_before_the_first_stage(tmp_path, capsys):
    # faults at two scheduled layers: the attention row of the later one is
    # scored when the stage provider is built, before any stage reads hidden states
    layout, dims, arrays = _grid_trace_arrays(0, side=4, layers=(1, 3))
    arrays["hidden_l1"][0, 0] = np.nan
    arrays["attn_l3"][layout.n_system] = np.nan
    trace = _write_arrays_trace(tmp_path, layout, dims, arrays)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 1 and out == ""
    assert err == "error: layer 3: stage scores contain non-finite values\n"


@pytest.mark.parametrize("alias,message", [
    ({"attn_l01": "attn_l1"}, "tensor name 'attn_l01' is not attn_l<layer>"),
    ({"hidden_l-1": "hidden_l1"}, "tensor name 'hidden_l-1' is not hidden_l<layer>"),
], ids=["leading-zero", "negative"])
def test_select_rejects_non_canonical_layer_names(tmp_path, capsys, alias, message):
    # attn_l01 beside attn_l1 would name layer 1 twice
    trace = _write_select_trace(tmp_path, alias=alias)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# each edit turns the valid manifest of _write_select_trace (tensors attn_l1
# [17], hidden_l1 [12, 8], attn_l3, hidden_l3) into a malformed one
MANIFEST_EDITS = {
    "tensors-not-a-list": lambda m: m.update(tensors=5),
    "shape-string": lambda m: m["tensors"][0].update(shape="ab"),
    "layout-string": lambda m: m.update(layout="x"),
    "n_image-string": lambda m: m["layout"].update(n_image="q"),
    "zero-layers": lambda m: m["model_dims"].update(layers=0),
    "empty-name": lambda m: m["tensors"][0].update(name=""),
    "float-extent": lambda m: m["tensors"][1].update(shape=[12.7, 8]),
    "bool-extent": lambda m: m["tensors"][0].update(shape=[True, 17]),
    # int() would read these as 12, 6 and 1
    "float-n_image": lambda m: m["layout"].update(n_image=12.9),
    "float-layers": lambda m: m["model_dims"].update(layers=6.5),
    "bool-heads": lambda m: m["model_dims"].update(heads=True),
    # str() would read these as "1" and tensor "5"
    "int-version": lambda m: m.update(version=1),
    "int-name": lambda m: m["tensors"][0].update(name=5),
    "list-file": lambda m: m["tensors"][0].update(file=["attn_l1.bin"]),
    # the OS takes no NUL byte in a path
    "nul-file": lambda m: m["tensors"][0].update(file="attn_l1\u0000.bin"),
    # a later write to a shared file, or to the manifest, wins silently
    "shared-file": lambda m: m["tensors"][1].update(file=m["tensors"][0]["file"]),
    "manifest-file": lambda m: m["tensors"][0].update(file="manifest.json"),
    # a reader that named the file after the tensor would read attn_l1.bin
    "empty-file": lambda m: m["tensors"][0].update(file=""),
}


@pytest.mark.parametrize("edit", list(MANIFEST_EDITS))
def test_select_rejects_malformed_manifest(tmp_path, capsys, edit):
    trace = _write_select_trace(tmp_path)
    manifest_path = tmp_path / "trace" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    MANIFEST_EDITS[edit](manifest)
    manifest_path.write_text(json.dumps(manifest))
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {manifest_path}: malformed manifest: ")
    assert err.count("\n") == 1


def test_select_missing_trace(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=6)
    code, _, err = _run(capsys, [
        "select", "--trace", str(tmp_path / "absent"), "--schedule", sched,
    ])
    assert code == 2 and err.startswith("error:")


def _select_argv(tmp_path, edit_manifest=None, stage=None):
    """``select`` over a valid trace and schedule, once ``edit_manifest``
    has been called on the manifest's path and ``stage`` merged into the
    first stage."""
    trace = _write_select_trace(tmp_path)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=6)
    if edit_manifest is not None:
        edit_manifest(Path(trace) / "manifest.json")
    if stage is not None:
        obj = json.loads(Path(sched).read_text())
        obj["stages"][0].update(stage)
        Path(sched).write_text(json.dumps(obj))
    return ["select", "--trace", trace, "--schedule", sched]


def _manifest_to_directory(manifest):
    manifest.unlink()
    manifest.mkdir()


def _unencodable_file_name(manifest):
    obj = json.loads(manifest.read_text())
    obj["tensors"][0]["file"] = "\ud800"
    manifest.write_text(json.dumps(obj))


def _cost_argv(layout):
    return ["cost", f"--layout={layout}", "--num-layers", "2", "--d", "8", "--mlp", "16"]


@pytest.mark.parametrize("argv,code,message", [
    (lambda tmp: _select_argv(tmp, edit_manifest=_manifest_to_directory),
     2, "no manifest.json found"),
    (lambda tmp: _select_argv(tmp, edit_manifest=_unencodable_file_name),
     2, "file name '\\ud800' is not encodable"),
    (lambda tmp: _select_argv(tmp, stage={"retention": "0.5"}),
     2, "retention must be a number, got '0.5'"),
    # the = form: argparse reads "--layout -1,..." as a flag
    (lambda tmp: _cost_argv("-1,4,1,2,2"), 1, "segment sizes must be non-negative"),
    (lambda tmp: _cost_argv("1,0,1,0,2"), 1, "grid extents must be positive"),
], ids=["manifest-is-a-directory", "unencodable-file", "string-retention",
        "negative-segment", "zero-grid-extent"])
def test_bad_trace_schedule_or_layout_is_one_error_line(tmp_path, capsys, argv, code, message):
    got, out, err = _run(capsys, argv(tmp_path))
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


def test_select_malformed_schedule_json(tmp_path, capsys):
    trace = _write_select_trace(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["select", "--trace", trace, "--schedule", str(bad)])
    assert code == 2 and "malformed schedule JSON" in err


@pytest.mark.parametrize("payload", [b'\xff\xfe{"num_layers": 4}', b'{"num_layers": \xff}'])
@pytest.mark.parametrize("command", ["select", "simulate", "cost"])
def test_schedule_that_is_not_utf8_exits_2(tmp_path, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    argv = {
        "select": ["select", "--trace", _write_select_trace(tmp_path)],
        "simulate": ["simulate"],
        "cost": ["cost", "--layout", "0,4,0,2,2", "--d", "8", "--mlp", "8"],
    }[command]
    code, out, err = _run(capsys, [*argv, "--schedule", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: malformed schedule JSON: ")
    assert err.count("\n") == 1


# JSON that json.loads refuses with no JSONDecodeError: nesting far past the
# decoder's recursion limit (RecursionError), and an integer literal past
# Python's limit of 4300 digits (ValueError)
UNDECODABLE_JSON = {
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "5000-digit-int": '{"num_layers": ' + "7" * 5000 + "}",
}


@pytest.mark.parametrize("payload", list(UNDECODABLE_JSON))
@pytest.mark.parametrize("command,source", [
    ("select", "schedule"), ("simulate", "schedule"), ("cost", "schedule"),
    ("select", "manifest"), ("calibrate", "manifest"),
], ids=["select-schedule", "simulate-schedule", "cost-schedule",
        "select-manifest", "calibrate-manifest"])
def test_undecodable_json_is_one_error_line(tmp_path, capsys, command, source, payload):
    trace = _write_select_trace(tmp_path)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    bad = Path(sched) if source == "schedule" else Path(trace) / "manifest.json"
    bad.write_text(UNDECODABLE_JSON[payload])
    argv = {
        "select": ["select", "--trace", trace, "--schedule", sched],
        "simulate": ["simulate", "--schedule", sched, "--layers", "6"],
        "cost": ["cost", "--layout", "0,4,0,2,2", "--d", "8", "--mlp", "8", "--schedule", sched],
        "calibrate": ["calibrate", trace],
    }[command]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    what = "schedule JSON" if source == "schedule" else "JSON"
    assert err.startswith(f"error: {bad}: malformed {what}: ") and err.count("\n") == 1


# each edit turns the valid two-stage schedule of _write_schedule into a
# malformed one
SCHEDULE_EDITS = {
    "stages-not-a-list": lambda s: s.update(stages=5),
    "stage-string": lambda s: s.update(stages=["x"]),
    "layer-string": lambda s: s["stages"][0].update(layer="a"),
    "float-num_layers": lambda s: s.update(num_layers=6.5),
    "bool-num_layers": lambda s: s.update(num_layers=True),
    "missing-balance": lambda s: s["stages"][1].pop("balance"),
    "stages-empty-string": lambda s: s.update(stages=""),
    "stages-empty-object": lambda s: s.update(stages={}),
    "root-list": lambda s: [s],  # an edit that returns a list makes it the root
}


@pytest.mark.parametrize("edit", list(SCHEDULE_EDITS))
def test_select_rejects_malformed_schedule(tmp_path, capsys, edit):
    trace = _write_select_trace(tmp_path)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    obj = json.loads(Path(sched).read_text())
    edited = SCHEDULE_EDITS[edit](obj)
    Path(sched).write_text(json.dumps(edited if isinstance(edited, list) else obj))
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {sched}: malformed schedule: ")
    assert err.count("\n") == 1


def test_select_rejects_out_of_range_schedule(tmp_path, capsys):
    trace = _write_select_trace(tmp_path)
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    obj = json.loads(Path(sched).read_text())
    obj["stages"][0]["retention"] = 1.5
    Path(sched).write_text(json.dumps(obj))
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 1 and out == ""
    assert err == "error: retention must be in (0, 1], got 1.5\n"


def test_select_scores_only_scheduled_layers(tmp_path, capsys, monkeypatch):
    import btp.selector

    trace = _write_select_trace(tmp_path)  # attn_l1 and attn_l3
    sched = _write_schedule(tmp_path, [(3, 0.5, 1.0)], num_layers=6)
    scored = []
    score = btp.selector.importance_last_token

    def counting(attn_row, layout, layer=0):
        scored.append(layer)
        return score(attn_row, layout, layer=layer)

    monkeypatch.setattr(btp.selector, "importance_last_token", counting)
    code, _, _ = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 0 and scored == [3]


@pytest.mark.parametrize("balance,attention", [(0.5, 1e-6), (1.0, 0.5)], ids=["greedy", "kept"])
def test_select_zero_norm_names_layer_and_token(tmp_path, capsys, balance, attention):
    layout, dims, arrays = _grid_trace_arrays(0, side=4, layers=(1,))
    arrays["hidden_l1"][13] = 0.0
    # a candidate of the greedy at balance 0.5; kept by attention at 1.0,
    # where only the diagnostics meet it
    arrays["attn_l1"][layout.n_system + 13] = attention
    trace = _write_arrays_trace(tmp_path, layout, dims, arrays)
    sched = _write_schedule(tmp_path, [(1, 0.75, balance)], num_layers=6)
    code, out, err = _run(capsys, ["select", "--trace", trace, "--schedule", sched])
    assert code == 1 and out == ""
    assert err == (
        "error: layer 1: cosine distance undefined for zero-norm hidden state of image token 13\n"
    )


# SHA-256 of the selection JSON as the parent of the blocked cosine
# normaliser wrote it: any rounding drift in the diversity half fails here
SELECT_JSON_SHA256 = {
    ("cosine_distance", "euclidean", "farthest_from_centroid"):
        "5cd34445b800185540fdbe080b6668e938358649bb13a7701fe395abcc9b98af",
    ("cosine_distance", "euclidean", "spatial_first_point"):
        "e485130c161caf98305f20a1c8721e720c95036f981066c2f1ed0011d0e7d21a",
    ("cosine_distance", "manhattan", "farthest_from_centroid"):
        "d0d92560334385c03c8f8814506af53fc538c3d3f4126d030fe5d068c4513a0d",
    ("cosine_distance", "manhattan", "spatial_first_point"):
        "d8ed0ab431f386211f333bccdac89041a2122008db2ad03e390d7173827d2aa2",
    ("euclidean", "euclidean", "farthest_from_centroid"):
        "259d14aa3807d25cfb753e0da60f34fa040f6690aa373b6e14807fce1824cd0d",
    ("euclidean", "euclidean", "spatial_first_point"):
        "e4d878c541ac170e7e7549171a07465eb78f1926079a2f3984f8dc4ca6a29f1c",
    ("euclidean", "manhattan", "farthest_from_centroid"):
        "e7db584deec313976aae4e9ada05c7e931bb5b844ac15287965def9c1e8a3c08",
    ("euclidean", "manhattan", "spatial_first_point"):
        "9af7682e9a8d51479a35ac5906b533c0d99e2c6566a75d6a7db878528497cde1",
}


@pytest.mark.parametrize("semantic,spatial,seed_rule", sorted(SELECT_JSON_SHA256))
def test_select_json_is_pinned(tmp_path, capsys, monkeypatch, semantic, spatial, seed_rule):
    import btp.selector

    layout, dims, arrays = _grid_trace_arrays(5, side=6, layers=(1, 2, 4))
    # attention takes image token 0 at layer 4, so the one-cell skeleton is empty there
    arrays["attn_l4"][layout.n_system] = 0.5
    _write_arrays_trace(tmp_path, layout, dims, arrays)
    _write_schedule(tmp_path, [(1, 0.75, 0.0), (2, 0.5, 0.5), (4, 0.5, 0.5)], num_layers=6)
    monkeypatch.chdir(tmp_path)  # the payload records the paths as given
    seeds = []
    greedy = btp.selector.greedy_maxmin

    def recording(*args, **kwargs):
        seeds.append(len(kwargs["initial"]))
        return greedy(*args, **kwargs)

    monkeypatch.setattr(btp.selector, "greedy_maxmin", recording)
    out_path = tmp_path / "selection.json"
    code, _, _ = _run(capsys, [
        "select", "--trace", "trace", "--schedule", "schedule.json",
        "--semantic-metric", semantic, "--spatial-metric", spatial, "--seed-rule", seed_rule,
        "--out", str(out_path),
    ])
    assert code == 0
    assert seeds == [7, 2, 0]  # skeleton sizes: the last stage runs the seed rule
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == SELECT_JSON_SHA256[semantic, spatial, seed_rule]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_strategy_csv(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (2, 0.5, 1.0)], num_layers=4)
    code, out, err = _run(capsys, ["simulate", "--schedule", sched])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4 + 1  # header plus one row per layer, nothing else
    assert lines[0] == "layer,btp,attention_only,diversity_only"
    assert [line.split(",")[0] for line in lines[1:5]] == ["1", "2", "3", "4"]
    for line in lines[1:5]:
        values = [float(v) for v in line.split(",")[1:]]
        assert len(values) == 3
    assert err.startswith("config: ") and err.count("\n") == 1
    config = json.loads(err[len("config: "):])
    assert config["layout"] == "2,16,6,4,4"
    assert config["metric"] == "cosine_similarity"

    rerun_code, rerun_out, rerun_err = _run(capsys, ["simulate", "--schedule", sched])
    assert rerun_code == 0 and rerun_out == out and rerun_err == err


def test_simulate_csv_out_file(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    out_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, [
        "simulate", "--schedule", sched, "--out", str(out_path),
    ])
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "layer,btp,attention_only,diversity_only"
    assert out == "" and err.startswith("config: ")  # CSV to the file, config to stderr


# SHA-256 of the CSV as the out-of-place softmax wrote it: any later
# rounding drift in the toy decoder fails here
SIMULATE_CSV_SHA256 = {
    ("raw", 1, ""): "f3298ce6f64d9d5b007551f1ff1db425c6ab1a70342f24dbc82d67ee5bdca312",
    ("raw", 7, ""): "6e956134632cbcf39be45829817d476b70dd00b8a188207963d12949bb827f70",
    ("unit", 1, ""): "90f4a227834455b3dd2eb314dd9f9509d73ff7a5f7c1d784a758b5289444d6e0",
    ("unit", 7, ""): "ce1e4c25a499d5edf84a52cec88d08dcf40740407d8db4113b7469527d6fd91a",
    # the simulate-toy benchmark's flags: the greedy runs on elementwise rows
    ("raw", 1, "euclidean"): "f8e24f2e2c2eb2027dad0c9ea0189e0894f8c9482d239c62df4dac7c5a5b22e7",
    ("raw", 7, "euclidean"): "6c7792dc90ec55aa5068c0999b1481760d024e369c63462b5f68f28cfa4ea893",
    ("unit", 1, "euclidean"): "ac203c0fc9a937d26d896bd5431979505e3fa9ddcb73f50efcbb23d0f0347c12",
    ("unit", 7, "euclidean"): "0a82e30e3b95c318a7debd5bda00ba1ff96ab137a02092ff333640604caf3350",
}


@pytest.mark.parametrize("value_norm,seed,diversity", [
    pytest.param(*key, id="-".join(str(part) for part in key if part))
    for key in sorted(SIMULATE_CSV_SHA256)
])
def test_simulate_csv_is_pinned(tmp_path, capsys, value_norm, seed, diversity):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    out_path = tmp_path / "sim.csv"
    metrics = ["--semantic-metric", diversity, "--spatial-metric", diversity] if diversity else []
    code, _, _ = _run(capsys, [
        "simulate", "--schedule", sched, "--layout", "2,16,6,4,4", "--layers", "6",
        "--d", "16", "--heads", "2", "--seed", str(seed), "--value-norm", value_norm,
        *metrics, "--out", str(out_path),
    ])
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == SIMULATE_CSV_SHA256[value_norm, seed, diversity]


@pytest.mark.parametrize("stages", [[(1, 0.5, 0.5), (3, 0.5, 1.0)], [(5, 0.5, 0.6)], []])
def test_simulate_csv_matches_four_whole_forwards(tmp_path, capsys, monkeypatch, stages):
    # all four forwards start from a shared head run to the first stage's
    # layer; at 402 rows and 8 heads the softmax runs over 5 row blocks
    sched = _write_schedule(tmp_path, stages, num_layers=6)
    argv = [
        "simulate", "--schedule", sched, "--layout", "2,384,16,16,24", "--layers", "6",
        "--d", "16", "--heads", "8", "--seed", "3", "--metric", "euclidean",
    ]
    code, shared, _ = _run(capsys, argv)
    assert code == 0
    prefixes = []

    def whole(inputs, layout, cfg, weights, prefix=None, prune_hook=None):
        prefixes.append(prefix and prefix.config.num_layers)
        return btp.toymodel.forward(inputs, layout, cfg, weights, prune_hook=prune_hook)

    monkeypatch.setattr(btp.cli, "forward", whole)
    code, unshared, _ = _run(capsys, argv)
    assert code == 0 and unshared == shared
    head_depth = stages[0][0] + 1 if stages else None
    assert prefixes == [head_depth] * 4


def test_simulate_keeps_only_the_text_rows_it_compares(tmp_path, capsys, monkeypatch):
    # each forward's record is cut to its text rows as the forward ends, so
    # the records the CSV reads hold nothing else
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    compared = []
    distance = btp.toymodel.layer_output_distance

    def recording(a, b, *args, **kwargs):
        compared.extend((a, b))
        return distance(a, b, *args, **kwargs)

    monkeypatch.setattr(btp.cli, "layer_output_distance", recording)
    code, _, _ = _run(capsys, ["simulate", "--schedule", sched, "--layout", "2,16,6,4,4",
                               "--layers", "6"])
    assert code == 0 and len(compared) == 2 * 6 * 3
    text = np.arange(18, 24)
    for record in compared:
        assert [rows.shape for rows in record.hidden] == [(6, 32)] * 7
        assert all(np.array_equal(rows, text) for rows in record.positions)
        assert all(rows.base is None for rows in record.hidden)


@pytest.mark.parametrize("stages", [[(1, 0.5, 0.5), (3, 0.5, 1.0)], [(5, 0.5, 0.6)], []])
def test_simulate_runs_each_head_layer_once(tmp_path, capsys, monkeypatch, stages):
    # the layers up to and including the first stage's are the same in all
    # four forwards: a pool worker runs them once and every forward starts
    # after them
    sched = _write_schedule(tmp_path, stages, num_layers=6)
    lock = threading.Lock()
    threads = []
    step = btp.toymodel.layer_step

    def counted(*args, **kwargs):
        with lock:
            threads.append(threading.current_thread())
        return step(*args, **kwargs)

    monkeypatch.setattr(btp.toymodel, "layer_step", counted)
    monkeypatch.setenv("BTP_THREADS", "4")
    code, _, _ = _run(capsys, ["simulate", "--schedule", sched, "--layers", "6"])
    assert code == 0
    head = stages[0][0] + 1 if stages else 0
    assert len(threads) == head + 4 * (6 - head)
    assert threading.main_thread() not in threads


def test_simulate_pool_is_capped_by_btp_threads(tmp_path, capsys, monkeypatch):
    # four usable CPUs, but BTP_THREADS=1 caps the pool at one worker: the
    # head and all four forwards run their layers on that one thread
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    callers = set()
    step = btp.toymodel.layer_step

    def counted(*args, **kwargs):
        callers.add(threading.current_thread())
        return step(*args, **kwargs)

    monkeypatch.setattr(btp.toymodel, "layer_step", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setenv("BTP_THREADS", "1")
    code, _, _ = _run(capsys, ["simulate", "--schedule", sched, "--layers", "6"])
    assert code == 0
    assert len(callers) == 1 and threading.main_thread() not in callers


@pytest.mark.parametrize("env,message", [
    ("many", "BTP_THREADS must be an integer, got 'many'"),
    ("0", "BTP_THREADS must be >= 1, got 0"),
])
def test_simulate_rejects_bad_thread_env(tmp_path, capsys, monkeypatch, env, message):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    monkeypatch.setenv("BTP_THREADS", env)
    code, out, err = _run(capsys, ["simulate", "--schedule", sched])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_computes_no_stage_diagnostics(tmp_path, capsys, monkeypatch):
    # the CSV reads no stage diagnostics, so simulate must not compute them
    import btp.selector

    def unread(*args, **kwargs):
        raise AssertionError("simulate computed stage diagnostics")

    monkeypatch.setattr(btp.selector, "_stage_diagnostics", unread)
    monkeypatch.setattr(btp.selector, "run_stage", unread)
    test_simulate_csv_is_pinned(tmp_path, capsys, "raw", 7, "")


def test_simulate_rejects_a_non_integer_layout(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    code, out, err = _run(capsys, ["simulate", "--schedule", sched, "--layout", "1,x,2,4,4"])
    assert (code, out) == (1, "")
    assert err == "error: layout fields must be integers, got '1,x,2,4,4'\n"


def test_simulate_needs_text_tokens(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    code, _, err = _run(capsys, [
        "simulate", "--schedule", sched, "--layout", "2,16,0,4,4",
    ])
    assert code == 1 and "text token" in err


def test_simulate_depth_mismatch(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=6)
    code, _, err = _run(capsys, ["simulate", "--schedule", sched, "--layers", "4"])
    assert code == 1 and "model has 4" in err


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    code, out, err = _run(capsys, ["simulate", "--schedule", sched, "--seed", "-1"])
    assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")


def test_simulate_csv_does_not_depend_on_thread_counts(tmp_path):
    # at this shape the K = 688 down-projection rounds differently on two
    # BLAS threads than on one: one forward after another gave CSV digest
    # 261689b9... under OPENBLAS_NUM_THREADS=1 and 6697c66d... under 2
    if btp.threads.openblas_thread_setter() is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    src = str(Path(btp.cli.__file__).resolve().parents[1])
    launcher = "import sys, btp.cli\nsys.exit(btp.cli.main(sys.argv[1:]))\n"
    args = [
        "simulate", "--schedule", sched, "--layout", "2,64,8,8,8", "--layers", "6",
        "--d", "256", "--heads", "8", "--mlp", "688",
    ]
    outputs = {}
    for blas in ("1", "2"):
        for workers in ("1", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, BTP_THREADS=workers)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", launcher, *args],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs[blas, workers] = proc.stdout
    assert len(set(outputs.values())) == 1, {
        key: hashlib.sha256(out).hexdigest()[:8] for key, out in outputs.items()
    }


def test_simulate_pool_with_more_workers_than_cores(tmp_path, capsys, monkeypatch):
    # four workers on any machine, switching threads every microsecond: the
    # CSV must be the one-worker CSV byte for byte
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    argv = ["simulate", "--schedule", sched, "--layers", "6", "--seed", "7"]
    monkeypatch.setenv("BTP_THREADS", "1")
    code, serial, _ = _run(capsys, argv)
    assert code == 0
    monkeypatch.setenv("BTP_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            code, pooled, _ = _run(capsys, argv)
            assert code == 0 and pooled == serial
    finally:
        sys.setswitchinterval(interval)


def _weights_drawn_up_front(cfg):
    """The weights ``init_weights`` draws, drawn before this returns."""
    rng = np.random.default_rng(cfg.seed)
    bound = 1.0 / math.sqrt(cfg.d)
    shapes = [(cfg.d, cfg.d)] * 4 + [(cfg.d, cfg.mlp), (cfg.mlp, cfg.d)]
    layers = [[rng.uniform(-bound, bound, size=shape).astype(np.float32) for shape in shapes]
              for _ in range(cfg.num_layers)]
    return btp.toymodel.ToyWeights(*zip(*layers))


def test_simulate_reads_weights_while_they_are_drawn(tmp_path, capsys, monkeypatch):
    # the head and the forwards read each layer's weights while a thread is
    # still drawing later ones: switching threads every microsecond, on 1, 2
    # and 4 workers, the CSV must be that of weights drawn before any forward
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    argv = ["simulate", "--schedule", sched, "--layers", "6", "--d", "64", "--mlp", "256",
            "--seed", "7"]
    with monkeypatch.context() as patch:
        patch.setattr(btp.cli, "init_weights", _weights_drawn_up_front)
        code, serial, _ = _run(capsys, argv)
    assert code == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setenv("BTP_THREADS", str(workers))
            code, drawn_alongside, _ = _run(capsys, argv)
            assert code == 0 and drawn_alongside == serial, workers
    finally:
        sys.setswitchinterval(interval)


def test_simulate_runs_a_replaced_forward_one_call_at_a_time(tmp_path, capsys, monkeypatch):
    # a tracer wraps btp.cli.forward and keeps one span stack: its calls
    # must not overlap, whatever the worker count would have been
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    argv = ["simulate", "--schedule", sched, "--layers", "6", "--seed", "7"]
    monkeypatch.setenv("BTP_THREADS", "4")
    code, pooled, _ = _run(capsys, argv)
    assert code == 0
    running, overlaps = [], []
    original = btp.cli.forward

    def wrapped(*args, **kwargs):
        running.append(None)
        overlaps.append(len(running))
        try:
            time.sleep(0.01)
            return original(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(btp.cli, "forward", wrapped)
    code, serial, _ = _run(capsys, argv)
    assert code == 0 and serial == pooled
    assert overlaps == [1, 1, 1, 1]


class _FaultyDriver(ScheduleDriver):
    """The btp schedule's stage returns duplicates, diversity_only's a
    token that is not alive; attention_only runs as it should."""

    def __call__(self, inputs):
        kept = super().__call__(inputs)
        balances = {stage.balance for stage in self.schedule.stages}
        if kept is None or balances == {1.0}:
            return kept
        if balances == {0.0}:
            return kept + inputs.layout.n_image
        return np.repeat(kept[:1], 2)


@pytest.mark.parametrize("workers", [1, 4])
def test_simulate_reports_the_first_failing_forward(tmp_path, capsys, monkeypatch, workers):
    # one forward after another, the btp forward failed first; on a pool the
    # error is still that of the first failing job in submission order
    monkeypatch.setattr(btp.cli, "ScheduleDriver", _FaultyDriver)
    monkeypatch.setenv("BTP_THREADS", str(workers))
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=4)
    code, out, err = _run(capsys, ["simulate", "--schedule", sched])
    assert (code, out, err) == (1, "", "error: prune hook returned duplicates at layer 1\n")


def test_simulate_restores_the_blas_thread_count(tmp_path, capsys):
    setter = btp.threads.openblas_thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5)], num_layers=4)
    # simulate runs its forwards with a count of 1 and must put back this 2
    before = setter(2)
    try:
        code, _, _ = _run(capsys, ["simulate", "--schedule", sched])
        assert code == 0
        assert setter(before) == 2
    finally:
        setter(before)


# ---------------------------------------------------------------------------
# failed --out writes and allocations


def _run_limited(kind, size, argv, tmp_path):
    """Run ``btp`` in a child process whose ``RLIMIT_<kind>`` is ``size``
    bytes, set after the imports."""
    launcher = (
        "import resource, signal, sys, btp.cli\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_{kind}, ({size}, {size}))\n"
        "sys.exit(btp.cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(btp.cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", launcher, *argv], env=env,
                          cwd=tmp_path, capture_output=True, timeout=120)


def _out_argv(tmp_path, command):
    if command == "cost":
        return ["cost", "--layout", "1,576,20,24,24", "--num-layers", "32",
                "--d", "4096", "--mlp", "11008"]
    if command == "calibrate":
        traces = [_write_calib_trace(tmp_path, f"t{i}", seed=i, planted={3: 9, 7: 11})
                  for i in range(3)]
        return ["calibrate", *traces, "--lambdas", "0.6,1.0"]
    sched = _write_schedule(tmp_path, [(1, 0.5, 0.5), (3, 0.5, 1.0)], num_layers=6)
    if command == "select":
        return ["select", "--trace", _write_select_trace(tmp_path), "--schedule", sched]
    return ["simulate", "--schedule", sched, "--layers", "6"]


@pytest.mark.parametrize("command", ["cost", "calibrate", "select", "simulate"])
def test_out_survives_a_failed_write(tmp_path, capsys, command):
    # a 64-byte file size limit cuts every result short: the previous
    # --out must survive whole, with no temporary file left beside it
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_path = out_dir / "result"
    out_path.write_bytes(b"previous result\n")
    argv = _out_argv(tmp_path, command) + ["--out", str(out_path)]
    proc = _run_limited("FSIZE", 64, argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    last = proc.stderr.decode().splitlines()[-1]
    assert last == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out_path)!r}"
    assert out_path.read_bytes() == b"previous result\n"
    assert [p.name for p in out_dir.iterdir()] == ["result"]

    # without the limit the result replaces the previous file
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out == ""
    assert len(out_path.read_bytes()) > 64
    assert [p.name for p in out_dir.iterdir()] == ["result"]


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_out_survives_a_write_cut_by_a_non_os_error(tmp_path, capsys, monkeypatch, error):
    # the staged file takes part of the result, then the write is cut: the
    # error goes on (MemoryError as exit 1), and the previous --out survives
    # whole, with no temporary file left beside it
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_path = out_dir / "report.json"
    out_path.write_bytes(b"previous result\n")
    written = []
    write_text = Path.write_text

    def write_part(self, text, *args, **kwargs):
        written.append(self)
        write_text(self, text[:10], *args, **kwargs)
        raise error

    monkeypatch.setattr(Path, "write_text", write_part)
    argv = ["cost", "--layout", "0,4,0,2,2", "--num-layers", "2", "--d", "8", "--mlp", "16",
            "--out", str(out_path)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert capsys.readouterr().out == ""
    else:
        assert _run(capsys, argv) == (1, "", "error: out of memory\n")
    assert len(written) == 1 and written[0].parent == out_dir and written[0] != out_path
    assert out_path.read_bytes() == b"previous result\n"
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]


def test_out_writes_through_a_fifo_and_a_symlink(tmp_path, capsys):
    argv = ["cost", "--layout", "0,4,0,2,2", "--num-layers", "2", "--d", "8", "--mlp", "16"]
    code, expected, _ = _run(capsys, argv)
    assert code == 0

    # renaming onto a FIFO would swap it for a regular file; the read end is
    # opened first, so the write neither blocks nor outgrows the pipe buffer
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, err = _run(capsys, argv + ["--out", str(fifo)])
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, out, err) == (0, "", "")
    assert received.decode() == expected
    assert stat.S_ISFIFO(fifo.lstat().st_mode)

    link = tmp_path / "link.json"
    link.symlink_to("report.json")
    code, _, _ = _run(capsys, argv + ["--out", str(link)])
    assert code == 0 and link.is_symlink()
    assert (tmp_path / "report.json").read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "report.json"]


def test_out_errors_name_the_out_path(tmp_path, capsys):
    for out_path in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = _run(capsys, [
            "cost", "--layout", "0,4,0,2,2", "--num-layers", "2",
            "--d", "8", "--mlp", "16", "--out", str(out_path),
        ])
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(out_path)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == []


def test_allocation_failure_is_one_error_line(tmp_path):
    # the weights alone would take 149 GiB; the child may map only 2 GiB
    sched = tmp_path / "schedule.json"
    sched.write_text('{"num_layers": 4, "stages": []}')
    argv = ["simulate", "--schedule", str(sched), "--d", "100000", "--heads", "1",
            "--layers", "4", "--layout", "1,1,1,1,1"]
    proc = _run_limited("AS", 2 << 30, argv, tmp_path)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,layers", [
    ("cost", 10**8),  # was killed by the kernel, not refused
    ("cost", 10**15),
    ("simulate", 10**9),
])
def test_commands_beyond_physical_memory_are_refused(tmp_path, command, layers):
    # the estimate refuses before anything is allocated; were it to pass on
    # a machine with more memory, the 2 GiB limit fails the allocation
    if command == "cost":
        argv = ["cost", "--layout", "1,576,20,24,24", "--num-layers", str(layers),
                "--d", "4096", "--mlp", "11008"]
    else:
        sched = _write_schedule(tmp_path, [], num_layers=layers)
        argv = ["simulate", "--schedule", sched, "--layers", str(layers)]
    proc = _run_limited("AS", 2 << 30, argv, tmp_path)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if layers * 128 > physical:  # each estimate is 128 bytes per layer or more
        assert err.startswith(f"error: out of memory: {command} needs about ")
        assert err.endswith(" GiB of physical memory\n")


def test_simulate_estimate_counts_the_attention_logits(tmp_path):
    # the weights and records of this model take under 1 GiB, but each
    # running forward's float32 [1, n, n] logits would take 33 TiB: refused
    # by the estimate, not failed at the allocation
    sched = _write_schedule(tmp_path, [], num_layers=1)
    argv = ["simulate", "--schedule", sched, "--layers", "1", "--d", "2", "--heads", "1",
            "--mlp", "1", "--layout", "1,1,3000000,1,1"]
    proc = _run_limited("AS", 2 << 30, argv, tmp_path)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert err.startswith("error: out of memory: simulate needs about ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# oracle


@pytest.mark.parametrize("kind", ["mmdp", "single_layer", "roundtrip"])
def test_oracle_suites_pass(capsys, kind):
    code, out, _ = _run(capsys, ["oracle", kind, "--instances", "10"])
    assert code == 0
    assert "checks passed" in out.splitlines()[-1]
    assert "[ok]" in out


def test_oracle_single_layer_output_is_pinned(capsys):
    code, out, _ = _run(capsys, ["oracle", "single_layer"])
    assert code == 0
    assert out == (
        "[ok] top-k optimal on 20 equal-norm instances: worst relative gap 2.03e-16\n"
        "[ok] unequal norms break top-k optimality: top-k error 4.0112 vs best 0.5831\n"
        "single_layer: 2/2 checks passed\n"
    )
    # the equal-norm value rows are Fortran-ordered; summing them in that
    # order reads a worst gap of 0.00e+00 here, while the default seed's
    # 2.03e-16 is the same in either order
    code, out, _ = _run(capsys, ["oracle", "single_layer", "--seed", "2024"])
    assert code == 0
    assert out.splitlines()[0] == (
        "[ok] top-k optimal on 20 equal-norm instances: worst relative gap 1.46e-16"
    )


@pytest.mark.parametrize("kind,suite", [
    ("single_layer", single_layer_suite), ("roundtrip", roundtrip_suite),
], ids=["single_layer", "roundtrip"])
def test_oracle_without_flags_runs_the_suite_defaults(capsys, kind, suite):
    # the CLI once seeded every suite with mmdp's 2024
    code, out, _ = _run(capsys, ["oracle", kind])
    assert code == 0
    assert out.splitlines() == suite().lines()


def _flip_first_payload_byte(read_trace):
    """``read_trace``, but the first tensor's first payload byte comes back changed."""
    def read(path):
        manifest, blobs = read_trace(path)
        blob = next(iter(blobs.values()))
        data = bytearray(blob.data.tobytes())
        data[0] ^= 1
        flipped = np.frombuffer(bytes(data), dtype=np.float32)
        return manifest, {**blobs, blob.name: TensorBlob(blob.name, blob.shape, flipped)}
    return read


def _reshape_first_tensor(read_trace):
    """``read_trace``, but the first tensor comes back, payload unchanged, under another shape."""
    def read(path):
        manifest, blobs = read_trace(path)
        blob = next(iter(blobs.values()))
        return manifest, {**blobs, blob.name: TensorBlob(blob.name, (*blob.shape, 1), blob.data)}
    return read


@pytest.mark.parametrize("kind,name,broken,failed,passed", [
    ("mmdp", "min_pairwise_distance", lambda real: lambda *args: 0.0,
     r"\[FAIL\] greedy within 0\.5x of optimum on 2 instances, both metrics: "
     r"instance 0 \(euclidean, n=\d+, k=\d+\): ratio 0\.000 \(and 3 more\)", "0/1"),
    ("single_layer", "single_layer_optimality_check", lambda real: lambda *args: (2.0, 1.0),
     r"\[FAIL\] top-k optimal on 2 equal-norm instances: "
     r"instance 0: n=\d+ k=\d+ relative gap 1\.00e\+00 \(and 1 more\)", "1/2"),
    ("roundtrip", "read_trace", _flip_first_payload_byte,
     r"\[FAIL\] 2 seeded traces round-trip bit-exact: "
     r"trace 0: tensor_0 payload bytes changed \(and 1 more\)", "0/1"),
    ("roundtrip", "read_trace", _reshape_first_tensor,
     r"\[FAIL\] 2 seeded traces round-trip bit-exact: "
     r"trace 0: tensor_0 shape changed \(and 1 more\)", "0/1"),
], ids=["mmdp", "single_layer", "roundtrip", "roundtrip-shape"])
def test_oracle_failing_suite_exits_3(capsys, monkeypatch, kind, name, broken, failed, passed):
    # the README promises exit 3 for a failed check; each suite is broken
    # through one name it looks up in btp.oracles, and its [FAIL] line names
    # the first failing instance and counts the others
    monkeypatch.setattr(btp.oracles, name, broken(getattr(btp.oracles, name)))
    code, out, _ = _run(capsys, ["oracle", kind, "--instances", "2"])
    lines = out.splitlines()
    assert code == 3
    assert any(re.fullmatch(failed, line) for line in lines), out
    assert lines[-1] == f"{kind}: {passed} checks passed"


def test_oracle_guard_refusal(capsys):
    code, _, err = _run(capsys, ["oracle", "mmdp", "--guard", "1"])
    assert code == 1 and "guard" in err


@pytest.mark.parametrize("kind,flags,message", [
    ("mmdp", ["--max-n", "5"], "max_n must be >= 6, got 5"),
    ("mmdp", ["--max-k", "1"], "max_k must be >= 2, got 1"),
    ("single_layer", ["--max-n", "3"], "max_n must be >= 4, got 3"),
    # past the exhaustive check's cap: refused before any instance runs
    ("single_layer", ["--max-n", "13"], "max_n must be <= 12, got 13"),
    ("mmdp", ["--instances", "-5"], "instances must be >= 0, got -5"),
    ("single_layer", ["--instances", "-5"], "instances must be >= 0, got -5"),
    ("roundtrip", ["--instances", "-5"], "instances must be >= 0, got -5"),
    # numpy seeds no generator from a negative number
    ("mmdp", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("single_layer", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("roundtrip", ["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["mmdp-max-n", "mmdp-max-k", "single_layer-max-n", "single_layer-max-n-cap",
        "mmdp-instances", "single_layer-instances", "roundtrip-instances", "mmdp-seed",
        "single_layer-seed", "roundtrip-seed"])
def test_oracle_rejects_out_of_range_sizes(capsys, kind, flags, message):
    code, out, err = _run(capsys, ["oracle", kind, *flags])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind,flag", [
    ("single_layer", "--max-k"), ("single_layer", "--guard"),
    ("roundtrip", "--max-n"), ("roundtrip", "--max-k"), ("roundtrip", "--guard"),
])
def test_oracle_refuses_a_flag_its_suite_does_not_take(capsys, kind, flag):
    # these flags were once accepted and silently ignored
    code, out, err = _run(capsys, ["oracle", kind, flag, "8"])
    assert code == 1 and out == ""
    assert err == f"error: {flag} does not apply to the {kind} suite\n"


def test_oracle_unknown_kind(capsys):
    code, _, err = _run(capsys, ["oracle", "unknown"])
    assert code == 1 and err.startswith("error:")


def test_missing_subcommand(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1 and err.startswith("error:")
