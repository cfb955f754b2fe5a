"""Self-contained verification suites pairing heuristics with exhaustive references.

Each suite runs a batch of seeded instances and reports one labelled check
per property.  They exist so the quality claims the engine rests on (greedy
dispersion within half of optimum, attention top-k optimal under the
equal-norm premise, bit-exact trace round trips) can be re-run anywhere
from the command line.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diversity import (
    brute_force_maxmin,
    greedy_maxmin,
    grid_coordinates,
    min_pairwise_distance,
    spatial_init,
)
from .errors import ValidationError
from .toymodel import ForwardRecord, ToyConfig, single_layer_optimality_check
from .trace import (
    ModelShape,
    TensorBlob,
    TokenLayout,
    make_manifest,
    read_trace,
    write_trace,
)


@dataclass
class SuiteReport:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        return [label for label, ok, _ in self.checks if not ok]

    def lines(self) -> list[str]:
        out = []
        for label, ok, detail in self.checks:
            mark = "ok" if ok else "FAIL"
            out.append(f"[{mark}] {label}" + (f": {detail}" if detail else ""))
        out.append(
            f"{self.name}: {sum(ok for _, ok, _ in self.checks)}/{len(self.checks)} checks passed"
        )
        return out


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# max-min dispersion


def mmdp_suite(
    instances: int = 50,
    seed: int = 2024,
    max_n: int = 12,
    max_k: int = 5,
    guard: int = 1_000_000,
) -> SuiteReport:
    """Greedy max-min against brute force on random point clouds.

    Checks the greedy set's min distance is >= 0.5x the exhaustive optimum
    under both semantic metrics on every seeded instance.  Instances have
    6..max_n points and 2..max_k picks, so max_n >= 6 and max_k >= 2.
    """
    _check_at_least("instances", instances, 0)
    _check_at_least("seed", seed, 0)
    _check_at_least("max_n", max_n, 6)
    _check_at_least("max_k", max_k, 2)
    report = SuiteReport("mmdp")
    worst = math.inf
    all_ok = True
    detail = ""
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(6, max_n + 1))
        k = int(rng.integers(2, min(max_k, n - 1) + 1))
        d = int(rng.integers(2, 7))
        pts = rng.standard_normal((n, d))
        for metric in ("euclidean", "cosine_distance"):
            sel = greedy_maxmin(pts, k, metric=metric)
            got = min_pairwise_distance(pts, sel, metric)
            opt, _ = brute_force_maxmin(pts, k, metric, guard=guard)
            ratio = got / opt if opt > 0 else math.inf
            worst = min(worst, ratio)
            if got < 0.5 * opt - 1e-12:
                all_ok = False
                detail = f"instance {i} ({metric}, n={n}, k={k}): ratio {ratio:.3f}"
    report.add(
        f"greedy within 0.5x of optimum on {instances} instances, both metrics",
        all_ok,
        detail or f"worst ratio {worst:.3f}",
    )
    return report


def spatial_grid_exactness(
    max_rows: int = 4,
    max_cols: int = 4,
    max_k: int = 4,
    guard: int = 1_000_000,
) -> list[str]:
    """Compare the grid skeleton picker against brute force on every small grid.

    Returns one description per (grid, k, metric) combo where the greedy
    skeleton misses the exhaustive max-min optimum.  The seeded greedy is
    provably non-optimal at k=3 on several rectangular grids: its second
    pick is the far corner, and every remaining cell's two corner distances
    then sum to a constant, capping the third pick's min distance below the
    corner-free optimum.
    """
    misses = []
    for rows in range(1, max_rows + 1):
        for cols in range(1, max_cols + 1):
            cells = rows * cols
            coords = grid_coordinates(rows, cols)
            for k in range(2, min(max_k, cells) + 1):
                for metric in ("manhattan", "euclidean"):
                    sel = spatial_init(rows, cols, k, metric)
                    got = min_pairwise_distance(coords, sel, metric)
                    opt, _ = brute_force_maxmin(coords, k, metric, guard=guard)
                    if abs(got - opt) > 1e-9:
                        misses.append(
                            f"grid {rows}x{cols} k={k} {metric}: greedy {got}, optimum {opt}"
                        )
    return misses


# ---------------------------------------------------------------------------
# single-layer pruning optimality


def _synthetic_record(
    attn_image: np.ndarray, values_image: np.ndarray, n_system: int = 2, n_text: int = 3
) -> ForwardRecord:
    """Minimal one-layer record carrying given image attention and values."""
    n_image = attn_image.shape[0]
    rows = int(math.isqrt(n_image))
    while n_image % rows != 0:
        rows -= 1
    layout = TokenLayout(n_system, n_image, n_text, rows, n_image // rows)
    total = layout.total()
    d = values_image.shape[1]
    attn = np.zeros(total, dtype=np.float32)
    attn[layout.image_slice] = attn_image
    other = 1.0 - attn_image.sum()
    attn[0] = max(other, 0.0)
    values = np.zeros((total, d), dtype=np.float32)
    values[layout.image_slice] = values_image
    hidden = np.zeros((total, d), dtype=np.float32)
    cfg = ToyConfig(num_layers=1, d=d, heads=1, mlp=d)
    positions = np.arange(total, dtype=np.int64)
    alive = np.arange(n_image, dtype=np.int64)
    return ForwardRecord(
        config=cfg,
        layout=layout,
        hidden=(hidden, hidden),
        positions=(positions, positions),
        attn_last=(attn,),
        values=(values,),
        image_survivors=(alive, alive),
    )


def orthonormal_value_instance(
    rng: np.random.Generator, n_image: int, d: int, scale: float = 1.0
) -> ForwardRecord:
    """Record whose image value rows are mutually orthogonal with equal norm."""
    if d < n_image:
        raise ValueError("need d >= n_image for orthonormal rows")
    q, _ = np.linalg.qr(rng.standard_normal((d, n_image)))
    values = (q.T * scale).astype(np.float32)
    logits = rng.standard_normal(n_image)
    weights = np.exp(logits - logits.max())
    weights = 0.8 * weights / weights.sum()
    return _synthetic_record(weights.astype(np.float32), values)


def unequal_norm_counterexample() -> tuple[ForwardRecord, int]:
    """Hand-built instance where attention top-1 is strictly suboptimal.

    Three orthogonal value rows with norms (1, 1, 20) and attention
    (0.5, 0.3, 0.2): dropping the two lowest-attention tokens drops the
    huge third row, while dropping tokens 0 and 1 costs far less.
    """
    values = np.zeros((3, 4), dtype=np.float32)
    values[0, 0] = 1.0
    values[1, 1] = 1.0
    values[2, 2] = 20.0
    attn = np.array([0.5, 0.3, 0.2], dtype=np.float32)
    return _synthetic_record(attn, values, n_system=1, n_text=1), 1


def single_layer_suite(instances: int = 20, seed: int = 7, max_n: int = 10) -> SuiteReport:
    """Top-k equals the exhaustive optimum under the equal-norm premise.

    Each instance uses equal-norm, mutually orthogonal value rows, the
    setting in which dropping the lowest-attention tokens provably
    minimizes the output perturbation; a fixed unequal-norm counterexample
    must show a strictly positive gap.  Instances have 4..max_n tokens.
    """
    _check_at_least("instances", instances, 0)
    _check_at_least("seed", seed, 0)
    _check_at_least("max_n", max_n, 4)
    report = SuiteReport("single_layer")
    all_ok = True
    detail = ""
    worst_gap = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(4, max_n + 1))
        k = int(rng.integers(1, n))
        d = int(rng.integers(n, 2 * n + 4))
        record = orthonormal_value_instance(rng, n, d)
        err_topk, err_best = single_layer_optimality_check(record, layer=0, k=k)
        gap = (err_topk - err_best) / max(err_best, 1e-300)
        worst_gap = max(worst_gap, gap)
        if gap >= 1e-6:
            all_ok = False
            detail = f"instance {i}: n={n} k={k} relative gap {gap:.2e}"
    report.add(
        f"top-k optimal on {instances} equal-norm instances",
        all_ok,
        detail or f"worst relative gap {worst_gap:.2e}",
    )

    record, k = unequal_norm_counterexample()
    err_topk, err_best = single_layer_optimality_check(record, layer=0, k=k)
    report.add(
        "unequal norms break top-k optimality",
        err_topk > err_best * (1 + 1e-9),
        f"top-k error {err_topk:.4f} vs best {err_best:.4f}",
    )
    return report


# ---------------------------------------------------------------------------
# trace round trips


def _random_blob(rng: np.random.Generator, name: str) -> TensorBlob:
    ndim = int(rng.integers(1, 4))
    shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
    data = rng.standard_normal(shape).astype(np.float32)
    # sprinkle NaNs with random payload bits and a few infinities
    flat = data.reshape(-1)
    n_special = int(rng.integers(0, max(2, flat.size // 3)))
    for _ in range(n_special):
        pos = int(rng.integers(flat.size))
        kind = rng.integers(3)
        if kind == 0:
            bits = np.uint32(0x7F800000) | np.uint32(rng.integers(1, 1 << 22))
            flat[pos] = bits.view(np.float32)  # NaN with random payload
        elif kind == 1:
            flat[pos] = np.float32(np.inf)
        else:
            flat[pos] = np.float32(-0.0)
    return TensorBlob(name=name, shape=shape, data=flat)


def roundtrip_suite(instances: int = 100, seed: int = 11, base_dir=None) -> SuiteReport:
    """Write/read cycles must reproduce payload bytes exactly, NaNs included."""
    _check_at_least("instances", instances, 0)
    _check_at_least("seed", seed, 0)
    report = SuiteReport("roundtrip")
    all_ok = True
    detail = ""
    with tempfile.TemporaryDirectory(dir=base_dir) as tmp:
        for i in range(instances):
            rng = np.random.default_rng([seed, i])
            layout = TokenLayout(1, 4, 1, 2, 2)
            dims = ModelShape(layers=2, d=4, heads=1, m=8)
            blobs = {}
            for t in range(int(rng.integers(1, 4))):
                name = f"tensor_{t}"
                blobs[name] = _random_blob(rng, name)
            path = Path(tmp) / f"trace_{i}"
            write_trace(path, make_manifest(layout, dims, blobs), blobs)
            _, loaded = read_trace(path)
            for name, blob in blobs.items():
                if loaded[name].shape != blob.shape:
                    all_ok = False
                    detail = f"trace {i}: {name} shape changed"
                elif loaded[name].data.tobytes() != blob.data.tobytes():
                    all_ok = False
                    detail = f"trace {i}: {name} payload bytes changed"
    report.add(f"{instances} seeded traces round-trip bit-exact", all_ok, detail)
    return report
