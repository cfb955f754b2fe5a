"""Closed-form cost model: FLOPs and KV cache."""

import numpy as np
import pytest

from btp.costs import (
    CostReport,
    ModelDims,
    kv_cache_bytes,
    layer_flops,
    per_layer_image_counts,
    schedule_flops,
)
from btp.errors import ValidationError
from btp.trace import ModelShape, PruningSchedule, PruningStage, TokenLayout

DIMS_7B = ModelDims(num_layers=32, d=4096, m=11008)
DIMS_13B = ModelDims(num_layers=40, d=5120, m=13824)
IMAGE_ONLY_576 = TokenLayout(n_system=0, n_image=576, n_text=0, grid_rows=24, grid_cols=24)


def test_dims_validation_and_from_shape():
    with pytest.raises(ValidationError):
        ModelDims(num_layers=0, d=8, m=16)
    with pytest.raises(ValidationError):
        ModelDims(num_layers=2, d=8, m=16, kv_bytes_per_elem=0)
    dims = ModelDims.from_shape(ModelShape(layers=4, d=8, heads=2, m=16))
    assert (dims.num_layers, dims.d, dims.m, dims.kv_bytes_per_elem) == (4, 8, 16, 2)


def test_layer_flops_matches_integer_arithmetic():
    for n, d, m in [(1, 2, 3), (576, 4096, 11008), (77, 512, 2048), (0, 64, 256)]:
        dims = ModelDims(num_layers=1, d=d, m=m)
        exact = 4 * n * d * d + 2 * n * n * d + 3 * n * d * m
        assert layer_flops(n, dims) == float(exact)
    with pytest.raises(ValidationError):
        layer_flops(-1, DIMS_7B)


def test_unpruned_cost_anchors():
    """Known full-precision totals for two common decoder shapes at 576 tokens."""
    report = schedule_flops(IMAGE_ONLY_576, PruningSchedule(stages=(), num_layers=32), DIMS_7B)
    assert report.tflops == pytest.approx(3.81715218432, rel=1e-12)
    assert report.kv_bytes == 301_989_888
    assert report.avg_tokens == 576.0
    assert report.per_layer_tokens == (576,) * 32

    report13 = schedule_flops(IMAGE_ONLY_576, PruningSchedule(stages=(), num_layers=40), DIMS_13B)
    assert report13.tflops == pytest.approx(7.4440507392, rel=1e-12)


def test_stage_boundary_semantics():
    # the stage layer itself still runs at full width; the reduction shows
    # up from the next layer on
    layout = TokenLayout(n_system=2, n_image=8, n_text=3, grid_rows=2, grid_cols=4)
    sched = PruningSchedule(stages=(PruningStage(1, 0.5, 0.5),), num_layers=4)
    assert per_layer_image_counts(layout, sched) == [8, 8, 4, 4]
    report = schedule_flops(layout, sched, ModelDims(num_layers=4, d=8, m=16))
    assert report.per_layer_tokens == (13, 13, 9, 9)
    assert report.avg_tokens == 6.0


def test_multi_stage_counts():
    layout = TokenLayout(n_system=0, n_image=576, n_text=0, grid_rows=24, grid_cols=24)
    stages = tuple(
        PruningStage(layer=l, retention=r, balance=b)
        for l, r, b in [(7, 0.5, 0.2), (15, 0.5, 0.5), (23, 0.5, 1.0)]
    )
    counts = per_layer_image_counts(layout, PruningSchedule(stages=stages, num_layers=32))
    assert counts[:8] == [576] * 8
    assert counts[8:16] == [288] * 8
    assert counts[16:24] == [144] * 8
    assert counts[24:] == [72] * 8


def test_retention_one_schedule_is_free():
    sched = PruningSchedule(
        stages=(PruningStage(3, 1.0, 0.5), PruningStage(9, 1.0, 0.5)), num_layers=32
    )
    a = schedule_flops(IMAGE_ONLY_576, sched, DIMS_7B)
    b = schedule_flops(IMAGE_ONLY_576, PruningSchedule(stages=(), num_layers=32), DIMS_7B)
    assert a == b


def test_pruning_never_costs_more():
    rng = np.random.default_rng(30)
    layout = TokenLayout(n_system=4, n_image=64, n_text=16, grid_rows=8, grid_cols=8)
    dims = ModelDims(num_layers=16, d=128, m=512)
    base = schedule_flops(layout, PruningSchedule(stages=(), num_layers=16), dims)
    for _ in range(10):
        layers = sorted(rng.choice(range(1, 15), size=2, replace=False).tolist())
        sched = PruningSchedule(
            stages=(
                PruningStage(layers[0], float(rng.uniform(0.2, 0.9)), 0.3),
                PruningStage(layers[1], float(rng.uniform(0.2, 0.9)), 0.7),
            ),
            num_layers=16,
        )
        got = schedule_flops(layout, sched, dims)
        assert got.tflops <= base.tflops
        assert got.kv_bytes <= base.kv_bytes
        assert got.avg_tokens <= base.avg_tokens
        assert all(p <= q for p, q in zip(got.per_layer_tokens, base.per_layer_tokens))


def test_dims_schedule_depth_must_agree():
    with pytest.raises(ValidationError):
        schedule_flops(IMAGE_ONLY_576, PruningSchedule(stages=(), num_layers=16), DIMS_7B)
    with pytest.raises(ValidationError):
        kv_cache_bytes(IMAGE_ONLY_576, PruningSchedule(stages=(), num_layers=16), DIMS_7B)


def test_cost_report_json_shape():
    report = CostReport(tflops=1.5, kv_bytes=10, avg_tokens=2.0, per_layer_tokens=(3, 4))
    assert report.to_json_dict() == {
        "tflops": 1.5, "kv_bytes": 10, "avg_tokens": 2.0, "per_layer_tokens": [3, 4],
    }
