"""Deterministic float32 decoder testbed with mid-forward token removal.

A small causal transformer whose layer recurrence is

    X(l+1) = X(l) + attn(LN(X(l))) + mlp(LN(attn(LN(X(l))) + X(l)))

with softmax attention scaled by 1/sqrt(d/heads), additive sinusoidal
position encodings applied once at the input, and weights drawn uniformly
from (-1/sqrt(d), 1/sqrt(d)).  Everything runs in float32 with numpy's
deterministic reductions, so repeated runs with a fixed seed are
bit-identical.  A prune hook may drop image rows after any layer; dropped
rows leave the sequence (and thus all later keys/values) entirely, while
surviving rows keep the position encoding of their original index.

The attention softmax runs in place on one float32 [heads, n, n] buffer,
with the causal mask added as a cached float32 bias (0 / -inf), so the
attention memory of a layer is one logits buffer plus the bias.  Its
outputs are bit-identical to the out-of-place softmax with an ``np.where``
mask, which the tests keep as their reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .selector import StageInputs
from .trace import TokenLayout

VALUE_NORM_MODES = ("raw", "unit")


@dataclass(frozen=True)
class ToyConfig:
    num_layers: int
    d: int
    heads: int
    mlp: int
    seed: int = 0
    value_norm: str = "raw"

    def __post_init__(self) -> None:
        if self.num_layers < 1 or self.d < 2 or self.heads < 1 or self.mlp < 1:
            raise ValidationError(f"bad toy dimensions: {self}")
        if self.d % self.heads != 0:
            raise ValidationError(f"d={self.d} not divisible by heads={self.heads}")
        if self.value_norm not in VALUE_NORM_MODES:
            raise ValidationError(f"value_norm must be one of {VALUE_NORM_MODES}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ToyWeights:
    """Per-layer projection matrices, all float32."""

    wq: tuple[np.ndarray, ...]
    wk: tuple[np.ndarray, ...]
    wv: tuple[np.ndarray, ...]
    wo: tuple[np.ndarray, ...]
    w1: tuple[np.ndarray, ...]
    w2: tuple[np.ndarray, ...]


def init_weights(cfg: ToyConfig) -> ToyWeights:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) weights.

    Draw order is fixed (per layer: wq, wk, wv, wo, w1, w2) so a seed pins
    every parameter bit.  Each matrix is written into a float32
    [layers, rows, cols] stack; ``ToyWeights`` holds per-layer views of them.
    """
    rng = np.random.default_rng(cfg.seed)
    d, mlp = cfg.d, cfg.mlp
    bound = 1.0 / math.sqrt(d)
    shapes = [(d, d)] * 4 + [(d, mlp), (mlp, d)]
    stacks = [np.empty((cfg.num_layers, rows, cols), dtype=np.float32) for rows, cols in shapes]
    for layer in range(cfg.num_layers):
        for stack in stacks:
            stack[layer] = rng.uniform(-bound, bound, size=stack.shape[1:])
    return ToyWeights(*(tuple(stack) for stack in stacks))


def sinusoidal_encoding(positions, d: int) -> np.ndarray:
    """Classic additive sin/cos position encoding, shape [len(positions), d]."""
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    rates = 1.0 / np.power(10000.0, (idx // 2) * 2.0 / d)
    angles = pos * rates
    enc = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return enc.astype(np.float32)


def _layernorm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True, dtype=np.float32)
    return centered / np.sqrt(var + np.float32(1e-5))


def _gelu(x: np.ndarray) -> np.ndarray:
    c = np.float32(math.sqrt(2.0 / math.pi))
    return np.float32(0.5) * x * (
        np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x))
    )


@functools.lru_cache(maxsize=8)
def causal_bias(seq: int) -> np.ndarray:
    """Read-only float32 [seq, seq] additive causal mask.

    0 on and below the diagonal, -inf above it.  Adding it to finite
    logits leaves the kept ones unchanged (up to the sign of a zero) and
    makes the masked ones -inf, as an ``np.where`` mask does.  Cached per
    length: ``forward`` asks for the same few lengths on every
    layer between two prunes.
    """
    bias = np.triu(np.full((seq, seq), -np.inf, dtype=np.float32), k=1)
    bias.flags.writeable = False
    return bias


def layer_step(
    x: np.ndarray, layer: int, cfg: ToyConfig, weights: ToyWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One decoder layer over the current rows.

    Returns (next hidden states, head-averaged last-row attention, value
    matrix).  The causal mask is over the current row order, which
    preserves the original order of any surviving tokens.
    """
    seq = x.shape[0]
    hd = cfg.d // cfg.heads
    normed = _layernorm(x)
    q = normed @ weights.wq[layer]
    k = normed @ weights.wk[layer]
    v = normed @ weights.wv[layer]
    if cfg.value_norm == "unit":
        norms = np.sqrt((v * v).sum(axis=1, keepdims=True, dtype=np.float32))
        if np.any(norms == 0):
            raise ValidationError(f"layer {layer}: zero-norm value row, cannot normalize")
        v = v / norms

    qh = q.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    kh = k.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    vh = v.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    # in place on one buffer.  Keep this order (scale, mask, subtract the row
    # max, exp, divide by the row sum): scaling q instead of the logits, or
    # multiplying by the reciprocal of the sum, changes the rounding.
    probs = qh @ kh.transpose(0, 2, 1)
    probs *= np.float32(1.0 / math.sqrt(hd))
    probs += causal_bias(seq)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True, dtype=np.float32)
    attn_out = (probs @ vh).transpose(1, 0, 2).reshape(seq, cfg.d) @ weights.wo[layer]

    mid = attn_out + x
    x_next = x + attn_out + _gelu(_layernorm(mid) @ weights.w1[layer]) @ weights.w2[layer]
    last_row = probs[:, -1, :].mean(axis=0)
    return x_next, last_row, v


@dataclass(frozen=True)
class ForwardRecord:
    """Full forward trace.

    ``hidden[l]``/``positions[l]`` describe the sequence entering layer l
    (index num_layers holds the final output); ``attn_last[l]`` and
    ``values[l]`` were computed during layer l and align with
    ``positions[l]``.  ``image_survivors[l]`` are the image indices alive
    entering layer l.  ``forward`` leaves ``values`` empty: a layer's value
    rows are the third output of ``layer_step`` on ``hidden[l]``, and only
    records built for the local-error probes carry them.
    """

    config: ToyConfig
    layout: TokenLayout
    hidden: tuple[np.ndarray, ...]
    positions: tuple[np.ndarray, ...]
    attn_last: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    image_survivors: tuple[np.ndarray, ...]


def forward(
    inputs,
    layout: TokenLayout,
    cfg: ToyConfig,
    weights: ToyWeights | None = None,
    prune_hook=None,
) -> ForwardRecord:
    """Run the decoder, optionally pruning image rows between layers.

    ``prune_hook`` is called after every layer with a ``StageInputs`` view
    (survivor indices, their scores from this layer's last-row attention,
    and this layer's input hidden states); it returns the image indices to
    keep, or None to keep everything.  Rows pruned at layer l are gone
    before layer l+1: later layers never see their keys or values.  The
    record holds no value matrices (see ``ForwardRecord``).
    """
    x = np.asarray(inputs, dtype=np.float32)
    if x.ndim != 2 or x.shape != (layout.total(), cfg.d):
        raise ValidationError(
            f"inputs must be [{layout.total()}, {cfg.d}], got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValidationError("inputs contain non-finite values")
    if weights is None:
        weights = init_weights(cfg)

    positions = np.arange(layout.total(), dtype=np.int64)
    x = x + sinusoidal_encoding(positions, cfg.d)
    alive = np.arange(layout.n_image, dtype=np.int64)

    hidden = [x]
    pos_hist = [positions]
    alive_hist = [alive]
    attn_rows: list[np.ndarray] = []

    for layer in range(cfg.num_layers):
        x_next, last_row, _ = layer_step(x, layer, cfg, weights)
        if not np.isfinite(x_next).all():
            raise ValidationError(f"non-finite activations after layer {layer}")
        attn_rows.append(last_row)

        if prune_hook is not None and alive.size > 0:
            image_mask = layout.image_mask(positions)
            view = StageInputs(
                layer=layer,
                survivors=alive,
                scores=last_row[image_mask],
                hidden=x[image_mask],
                layout=layout,
            )
            kept = prune_hook(view)
            if kept is not None:
                kept = np.asarray(kept, dtype=np.int64).reshape(-1)
                if np.unique(kept).size != kept.size:
                    raise ValidationError(f"prune hook returned duplicates at layer {layer}")
                kept = np.sort(kept)
                if kept.size and not np.isin(kept, alive).all():
                    raise ValidationError(
                        f"prune hook returned non-survivor indices at layer {layer}"
                    )
                if kept.size < alive.size:
                    keep_mask = np.ones(x_next.shape[0], dtype=bool)
                    keep_mask[image_mask] = np.isin(alive, kept)
                    x_next = x_next[keep_mask]
                    positions = positions[keep_mask]
                alive = kept

        x = x_next
        hidden.append(x)
        pos_hist.append(positions)
        alive_hist.append(alive)

    return ForwardRecord(
        config=cfg,
        layout=layout,
        hidden=tuple(hidden),
        positions=tuple(pos_hist),
        attn_last=tuple(attn_rows),
        values=(),
        image_survivors=tuple(alive_hist),
    )


DISTANCE_METRICS = ("cosine_similarity", "euclidean")


def layer_output_distance(
    a: ForwardRecord,
    b: ForwardRecord,
    layer: int,
    positions,
    metric: str = "cosine_similarity",
) -> float:
    """Compare two records at one depth over shared sequence positions.

    ``cosine_similarity`` returns the mean per-position cosine (1.0 means
    identical directions); ``euclidean`` the mean per-position L2 gap.
    Every requested position must be alive in both records at that depth.
    """
    if metric not in DISTANCE_METRICS:
        raise ValidationError(f"metric must be one of {DISTANCE_METRICS}")
    if not 0 <= layer < len(a.hidden) or layer >= len(b.hidden):
        raise ValidationError(f"layer {layer} outside recorded range")
    wanted = np.asarray(list(positions), dtype=np.int64)
    if wanted.size == 0:
        raise ValidationError("no positions to compare")

    def rows(record: ForwardRecord) -> np.ndarray:
        present = record.positions[layer]
        lookup = {int(p): i for i, p in enumerate(present)}
        try:
            idx = [lookup[int(p)] for p in wanted]
        except KeyError as exc:
            raise ValidationError(
                f"position {exc.args[0]} not alive at layer {layer}"
            ) from exc
        return record.hidden[layer][idx].astype(np.float64)

    va, vb = rows(a), rows(b)
    if metric == "euclidean":
        return float(np.linalg.norm(va - vb, axis=1).mean())
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValidationError("cosine undefined for zero-norm hidden state")
    return float(((va * vb).sum(axis=1) / (na * nb)).mean())


def _image_values(record: ForwardRecord, layer: int, mask: np.ndarray) -> np.ndarray:
    """float64 value rows of ``layer`` under ``mask``; the record must hold values."""
    if len(record.values) != len(record.attn_last):
        raise ValidationError("record holds no value matrices")
    return record.values[layer][mask].astype(np.float64)


def local_prune_error(record: ForwardRecord, layer: int, kept) -> float:
    """Perturbation of the layer's last-row attention output if only the
    ``kept`` image tokens (original image indices, subset of the tokens
    alive at ``layer``) contribute: L2 norm of sum_{i dropped} a_i v_i.

    This is the local cost a pruning decision at ``layer`` inflicts on that
    same layer's output, before any downstream compounding.  The record
    must carry ``values``.
    """
    if not 0 <= layer < len(record.attn_last):
        raise ValidationError(f"layer {layer} outside recorded range")
    mask = record.layout.image_mask(record.positions[layer])
    alive = record.image_survivors[layer]
    kept = np.asarray(list(kept), dtype=np.int64)
    if kept.size and not np.isin(kept, alive).all():
        raise ValidationError(f"kept indices not alive at layer {layer}")
    a = record.attn_last[layer][mask].astype(np.float64)
    v = _image_values(record, layer, mask)
    drop = ~np.isin(alive, kept)
    return float(np.linalg.norm((a[drop, None] * v[drop]).sum(axis=0)))


def single_layer_optimality_check(
    record: ForwardRecord, layer: int, k: int, max_image_tokens: int = 12
) -> tuple[float, float]:
    """Attention top-k versus the exhaustive best keep-set at one layer.

    The perturbation of keeping set S is the L2 norm of the dropped
    attention mass sum_{i not in S} a_i v_i, where a is the last row's
    attention over image positions and v the record's ``values`` rows.  Returns
    (top-k error, exhaustive minimum).  With equal-norm mutually orthogonal
    value rows the two coincide; with unequal norms top-k can be strictly
    worse.  Refuses more than ``max_image_tokens`` image tokens.
    """
    if not 0 <= layer < len(record.attn_last):
        raise ValidationError(f"layer {layer} outside recorded range")
    mask = record.layout.image_mask(record.positions[layer])
    n = int(mask.sum())
    if n == 0:
        raise ValidationError(f"no image tokens alive at layer {layer}")
    if n > max_image_tokens:
        raise ValidationError(
            f"{n} image tokens alive, exhaustive check capped at {max_image_tokens}"
        )
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")

    a = record.attn_last[layer][mask].astype(np.float64)
    v = _image_values(record, layer, mask)
    weighted = a[:, None] * v
    total = weighted.sum(axis=0)

    def dropped_norm(keep: tuple[int, ...]) -> float:
        kept_sum = weighted[list(keep)].sum(axis=0)
        return float(np.linalg.norm(total - kept_sum))

    order = np.lexsort((np.arange(n), -a))
    err_topk = dropped_norm(tuple(int(i) for i in order[:k]))
    err_best = min(dropped_norm(keep) for keep in itertools.combinations(range(n), k))
    return err_topk, err_best
