"""Seeded inputs, CLI arguments and output checks for each workload.

Every input comes from the workload seed.  There are no real LLaVA
traces to replay, so the traces are synthetic at LLaVA-1.5-7B shapes
(576 image tokens on a 24x24 grid, d = 4096, 32 layers) or at an AnyRes
size (2304 tokens on a 48x48 grid).  The commands' work does not depend
on the values, only on these shapes.

``prepare`` writes a workload's inputs under a work directory and returns
a ``Prepared``: the ``btp`` arguments to run, the file the command writes,
and a check that returns an error message for a wrong output.  The
``Shapes`` argument exists so that the self-test can run every workload
at a tiny size through the same code.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

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

@dataclass(frozen=True)
class Shapes:
    """Sizes of one workload's inputs; ``PAPER`` holds the benchmarked ones."""

    layout: TokenLayout
    layers: int = 32
    d: int = 4096
    heads: int = 32
    mlp: int = 11008
    # synthetic_shift_stack runs at this width and an isometry lifts its
    # states to d: about 5 s per trace less set-up than running it at d = 4096
    shift_rank: int = 64
    # stage layers of the select and simulate schedules
    select_layers: tuple[int, ...] = (2, 8, 16, 24)
    simulate_layers: tuple[int, ...] = (2, 8, 16)


LLAVA_LAYOUT = TokenLayout(n_system=35, n_image=576, n_text=64, grid_rows=24, grid_cols=24)
ANYRES_LAYOUT = TokenLayout(n_system=35, n_image=2304, n_text=64, grid_rows=48, grid_cols=48)

# the benchmarked workloads, by name
PAPER = {
    "calibrate-llava7b": Shapes(layout=LLAVA_LAYOUT),
    "select-anyres": Shapes(layout=ANYRES_LAYOUT),
    "simulate-toy": Shapes(layout=LLAVA_LAYOUT, d=256, heads=8, mlp=688),
}

# the same workloads at sizes that run in a fraction of a second, for selftest.py
TINY = {
    "calibrate-llava7b": Shapes(
        layout=TokenLayout(1, 16, 2, 4, 4), layers=8, d=32, heads=2, mlp=64, shift_rank=8,
    ),
    "select-anyres": Shapes(
        layout=TokenLayout(1, 36, 2, 6, 6), layers=8, d=32, heads=2, mlp=64,
        select_layers=(1, 3, 5, 7),
    ),
    "simulate-toy": Shapes(
        layout=TokenLayout(1, 16, 2, 4, 4), layers=6, d=16, heads=2, mlp=32,
        simulate_layers=(1, 2, 4),
    ),
}

# balance presets, as in the CLI: llava7b for calibrate and simulate,
# qwen25vl7b for select
LLAVA7B_BALANCES = (0.6, 0.8, 1.0)
QWEN_BALANCES = (0.2, 0.5, 0.8, 1.0)
RETENTION = 0.5
CALIB_TRACES = 2


@dataclass
class Prepared:
    """One workload's inputs on disk and how to run and check it."""

    argv: list[str]
    out: Path
    check: Callable[[bytes], str | None]
    trace_bytes: int = 0      # bytes handed to write_trace
    write_s: float = 0.0      # time spent inside write_trace
    # trace tensors the command consumes, computed from the schedule;
    # None means every tensor it reads
    used_tensors: frozenset[str] | None = None


def trace_payload_bytes(shapes: Shapes, workload: str) -> int:
    """Payload bytes of the traces a workload writes; used for the disk check."""
    lay = shapes.layout
    if workload == "calibrate-llava7b":
        return CALIB_TRACES * (shapes.layers + 1) * lay.n_image * shapes.d * 4
    if workload == "select-anyres":
        return shapes.layers * (lay.n_image * shapes.d + shapes.heads * lay.total()) * 4
    return 0


def _write_trace(root: Path, shapes: Shapes, arrays: dict[str, np.ndarray]) -> tuple[int, float]:
    blobs = {name: TensorBlob.from_array(name, arr) for name, arr in arrays.items()}
    dims = ModelShape(layers=shapes.layers, d=shapes.d, heads=shapes.heads, m=shapes.mlp)
    manifest = make_manifest(shapes.layout, dims, blobs)
    start = time.perf_counter()
    write_trace(root, manifest, blobs)
    elapsed = time.perf_counter() - start
    return sum(b.data.nbytes for b in blobs.values()), elapsed


def _write_schedule(path: Path, schedule: PruningSchedule) -> None:
    path.write_text(json.dumps(schedule.to_json_dict()) + "\n")


def _schedule(layers, balances, num_layers) -> PruningSchedule:
    stages = tuple(PruningStage(l, RETENTION, b) for l, b in zip(layers, balances))
    return PruningSchedule(stages=stages, num_layers=num_layers)


def _lift(rng: np.random.Generator, rank: int, d: int) -> np.ndarray:
    """[rank, d] matrix with orthonormal rows: x @ lift keeps every cosine."""
    q, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    return np.ascontiguousarray(q.T, dtype=np.float32)


# ---------------------------------------------------------------------------
# calibrate-llava7b


def planted_peaks(seed: int, num_layers: int) -> dict[int, int]:
    """Three shift peaks: layers at least 3 apart, counts distinct.

    A peak at the last layer emits no pruning layer, so peaks stay below
    ``num_layers - 1``.  Non-adjacent peaks with zero-count neighbours are
    strict local maxima above the profile mean.
    """
    rng = np.random.default_rng([seed, 0])
    while True:
        layers = sorted(int(l) for l in rng.choice(num_layers - 1, size=3, replace=False))
        if all(b - a >= 3 for a, b in zip(layers, layers[1:])):
            break
    return {l: 3 + 2 * i for i, l in enumerate(layers)}


def _prepare_calibrate(work: Path, seed: int, shapes: Shapes) -> Prepared:
    n_image = shapes.layout.n_image
    # counts are a share of the tokens so that tiny shapes still fit
    peaks = {l: max(1, n_image * c // 16) for l, c in planted_peaks(seed, shapes.layers).items()}
    traces, written, write_s = [], 0, 0.0
    for t in range(CALIB_TRACES):
        rng = np.random.default_rng([seed, 1, t])
        low = synthetic_shift_stack(rng, shapes.layers, n_image, shapes.shift_rank, peaks)
        stack = low @ _lift(rng, shapes.shift_rank, shapes.d)
        root = work / f"calib{t}"
        nbytes, secs = _write_trace(
            root, shapes, {f"hidden_l{i}": stack[i] for i in range(shapes.layers + 1)}
        )
        del stack
        traces.append(str(root))
        written += nbytes
        write_s += secs

    schedule_layers = sorted(l + 1 for l in peaks)
    want_profile = [peaks.get(l, 0) * CALIB_TRACES for l in range(shapes.layers)]
    want = _schedule(schedule_layers, LLAVA7B_BALANCES, shapes.layers)

    def check(raw: bytes) -> str | None:
        payload = json.loads(raw)
        if payload.get("fallback") is not False:
            return "calibrate fell back to even subdivision"
        got = PruningSchedule.from_json_dict(payload)
        if got != want:
            return f"schedule {got.to_json_dict()} != planted {want.to_json_dict()}"
        counts = [e["shifted_count"] for e in payload["profile"]]
        if counts != want_profile:
            return f"profile counts {counts} != planted {want_profile}"
        return None

    out = work / "schedule.out.json"
    argv = ["calibrate", *traces, "--lambdas", "llava7b",
            "--retentions", str(RETENTION), "--out", str(out)]
    return Prepared(argv, out, check, written, write_s)


# ---------------------------------------------------------------------------
# select-anyres


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def _prepare_select(work: Path, seed: int, shapes: Shapes) -> Prepared:
    lay = shapes.layout
    rng = np.random.default_rng([seed, 2])
    # full-rank shared content plus a per-layer low-rank drift: cheap to
    # make, and every layer's hidden states differ
    base = rng.standard_normal((lay.n_image, shapes.d), dtype=np.float32)
    drift_rank = min(16, shapes.d)
    basis = rng.standard_normal((drift_rank, shapes.d), dtype=np.float32)
    arrays = {}
    for layer in range(shapes.layers):
        arrays[f"attn_l{layer}"] = _softmax_rows(2.0 * rng.standard_normal((shapes.heads, lay.total())))
        hidden = rng.standard_normal((lay.n_image, drift_rank), dtype=np.float32) @ basis
        hidden += base
        arrays[f"hidden_l{layer}"] = hidden
    del base
    root = work / "anyres"
    written, write_s = _write_trace(root, shapes, arrays)
    del arrays

    schedule = _schedule(shapes.select_layers, QWEN_BALANCES, shapes.layers)
    sched_path = work / "schedule.json"
    _write_schedule(sched_path, schedule)
    kept_counts = schedule.kept_counts(lay.n_image)

    def check(raw: bytes) -> str | None:
        stages = json.loads(raw)["stages"]
        if [s["layer"] for s in stages] != list(shapes.select_layers):
            return f"stage layers {[s['layer'] for s in stages]} != {list(shapes.select_layers)}"
        alive = set(range(lay.n_image))
        for stage, want in zip(stages, kept_counts):
            kept = stage["kept_indices"]
            if len(kept) != want:
                return f"layer {stage['layer']}: kept {len(kept)} tokens, want {want}"
            if kept != sorted(set(kept)):
                return f"layer {stage['layer']}: kept indices not sorted and unique"
            if not set(kept) <= alive:
                return f"layer {stage['layer']}: keeps tokens an earlier stage dropped"
            alive = set(kept)
        return None

    out = work / "selection.out.json"
    argv = ["select", "--trace", str(root), "--schedule", str(sched_path), "--out", str(out)]
    used = frozenset(f"{p}_l{l}" for l in shapes.select_layers for p in ("attn", "hidden"))
    return Prepared(argv, out, check, written, write_s, used)


# ---------------------------------------------------------------------------
# simulate-toy


STRATEGIES = ("btp", "attention_only", "diversity_only")


def _prepare_simulate(work: Path, seed: int, shapes: Shapes) -> Prepared:
    schedule = _schedule(shapes.simulate_layers, LLAVA7B_BALANCES, shapes.layers)
    sched_path = work / "schedule.json"
    _write_schedule(sched_path, schedule)
    lay = shapes.layout

    def check(raw: bytes) -> str | None:
        lines = raw.decode().splitlines()
        if lines[0] != "layer," + ",".join(STRATEGIES):
            return f"unexpected CSV header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != [str(l) for l in range(1, shapes.layers + 1)]:
            return f"CSV has {len(rows)} rows, want layers 1..{shapes.layers}"
        if any(len(r) != 1 + len(STRATEGIES) for r in rows):
            return "a CSV row lacks a strategy column"
        if not all(math.isfinite(float(v)) for r in rows for v in r[1:]):
            return "CSV holds a non-finite value"
        return None

    out = work / "simulate.out.csv"
    argv = [
        "simulate", "--schedule", str(sched_path),
        "--layout", ",".join(str(v) for v in (lay.n_system, lay.n_image, lay.n_text,
                                              lay.grid_rows, lay.grid_cols)),
        "--layers", str(shapes.layers), "--d", str(shapes.d), "--heads", str(shapes.heads),
        "--mlp", str(shapes.mlp), "--seed", str(seed),
        "--semantic-metric", "euclidean", "--spatial-metric", "euclidean", "--out", str(out),
    ]
    return Prepared(argv, out, check)


_PREPARE = {
    "calibrate-llava7b": _prepare_calibrate,
    "select-anyres": _prepare_select,
    "simulate-toy": _prepare_simulate,
}


def prepare(workload: str, work: Path, seed: int, shapes: Shapes) -> Prepared:
    """Generate ``workload``'s inputs at ``shapes`` from ``seed`` under ``work``."""
    return _PREPARE[workload](work, seed, shapes)
