"""Closed-form decoder cost accounting under a pruning schedule."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .trace import PruningSchedule, TokenLayout


@dataclass(frozen=True)
class ModelDims:
    """Dimensions that enter the cost formulas."""

    num_layers: int
    d: int
    m: int
    kv_bytes_per_elem: int = 2

    def __post_init__(self) -> None:
        if min(self.num_layers, self.d, self.m, self.kv_bytes_per_elem) < 1:
            raise ValidationError("all model dimensions must be >= 1")


@dataclass(frozen=True)
class CostReport:
    """FLOPs, KV-cache footprint, and token occupancy for one schedule.

    ``per_layer_tokens`` is the total sequence length seen by each layer;
    ``avg_tokens`` is the layer-averaged count of surviving image tokens.
    """

    tflops: float
    kv_bytes: int
    avg_tokens: float
    per_layer_tokens: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "tflops": self.tflops,
            "kv_bytes": self.kv_bytes,
            "avg_tokens": self.avg_tokens,
            "per_layer_tokens": list(self.per_layer_tokens),
        }


def layer_flops(n: int, dims: ModelDims) -> float:
    """FLOPs of one decoder layer over n tokens: 4nd^2 + 2n^2d + 3ndm."""
    if n < 0:
        raise ValidationError(f"token count must be >= 0, got {n}")
    d, m = float(dims.d), float(dims.m)
    return 4.0 * n * d * d + 2.0 * n * n * d + 3.0 * n * d * m


def schedule_flops(layout: TokenLayout, schedule: PruningSchedule, dims: ModelDims) -> CostReport:
    """FLOPs, decode-time KV cache and image-token occupancy under ``schedule``.

    A stage at layer l runs l on the pre-prune count; layers l+1 onward see
    the reduced count.  The KV cache holds 2 * n * d * bytes per layer.
    """
    if dims.num_layers != schedule.num_layers:
        raise ValidationError(
            f"schedule covers {schedule.num_layers} layers, dims say {dims.num_layers}"
        )
    kept = dict(zip((s.layer for s in schedule.stages), schedule.kept_counts(layout.n_image)))
    image_counts = []
    alive = layout.n_image
    for layer in range(schedule.num_layers):
        image_counts.append(alive)
        alive = kept.get(layer, alive)
    other = layout.n_system + layout.n_text
    totals = [other + c for c in image_counts]
    return CostReport(
        tflops=sum(layer_flops(n, dims) for n in totals) / 1e12,
        kv_bytes=sum(2 * n * dims.d * dims.kv_bytes_per_elem for n in totals),
        avg_tokens=sum(image_counts) / len(image_counts),
        per_layer_tokens=tuple(totals),
    )
