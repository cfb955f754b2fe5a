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
so the attention memory of a layer is that one logits buffer.  Its passes
run over blocks of query rows holding about ``SOFTMAX_BLOCK_BYTES`` (1 MiB)
of logits, all heads and whole rows, so that each block stays in cache
across them; a buffer smaller than that is one block.  Each block of rows
[start, stop) is scaled, its columns >= stop are set to -inf, and a
float32 triangular bias (0 / -inf) is added on its [start:stop, start:stop]
diagonal tile only; the max, subtract, exp, sum and divide passes then run
over whole contiguous rows.  No key is cut off: each row still reduces its
whole length-n axis, and ``q @ k.T`` and ``probs @ v`` run on the whole
buffer.  The outputs are bit-identical to the out-of-place softmax with an
``np.where`` mask, which the tests keep as their reference.

``forward`` can start from the record of a shallower unpruned forward of
the same inputs and weights (its ``prefix``): until the first prune, the
layers that record holds are read from it instead of being run again.
The outputs are the bits a full run gives.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .selector import StageInputs
from .trace import TokenLayout

VALUE_NORM_MODES = ("raw", "unit")
# logits per softmax block in ``layer_step``: all heads, whole rows
SOFTMAX_BLOCK_BYTES = 1 << 20


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
    """Per-layer projection matrices, all float32.

    Each field holds one matrix per layer: a tuple, or the layers
    ``init_weights`` is still drawing, where reading layer l waits until
    layer l is drawn.
    """

    wq: Sequence[np.ndarray]
    wk: Sequence[np.ndarray]
    wv: Sequence[np.ndarray]
    wo: Sequence[np.ndarray]
    w1: Sequence[np.ndarray]
    w2: Sequence[np.ndarray]


class _LayerDraw:
    """A thread that fills weight stacks layer by layer, in order.

    ``wait(layer)`` returns once that layer of every stack is written.  If
    the draw fails first, it raises the draw's error instead, after the
    thread has ended.
    """

    def __init__(self, rng: np.random.Generator, bound: float, stacks) -> None:
        self._drawn = 0
        self._error: BaseException | None = None
        self._cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._draw, args=(rng, bound, stacks), name="btp-init-weights", daemon=True
        )
        self._thread.start()

    def _draw(self, rng, bound, stacks) -> None:
        try:
            for layer in range(stacks[0].shape[0]):
                for stack in stacks:
                    stack[layer] = rng.uniform(-bound, bound, size=stack.shape[1:])
                with self._cond:
                    self._drawn = layer + 1
                    self._cond.notify_all()
        except BaseException as exc:  # handed to every reader of a later layer
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def wait(self, layer: int) -> None:
        with self._cond:
            self._cond.wait_for(lambda: self._drawn > layer or self._error is not None)
            if self._drawn > layer:
                return
        self._thread.join()
        raise self._error


class _DrawnLayers(Sequence):
    """The per-layer matrices of one stack that a ``_LayerDraw`` fills."""

    def __init__(self, stack: np.ndarray, draw: _LayerDraw) -> None:
        self._stack = stack
        self._draw = draw

    def __len__(self) -> int:
        return self._stack.shape[0]

    def __getitem__(self, layer):
        if isinstance(layer, slice):
            return tuple(self[i] for i in range(len(self))[layer])
        layer = range(len(self))[layer]  # IndexError and TypeError as a tuple raises them
        self._draw.wait(layer)
        return self._stack[layer]


def init_weights(cfg: ToyConfig) -> ToyWeights:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) weights, drawn on a thread.

    Draw order is fixed (per layer: wq, wk, wv, wo, w1, w2) so a seed pins
    every parameter bit.  The float32 [layers, rows, cols] stacks are
    allocated here, and a thread then writes the draws into them layer by
    layer, so a forward can run its first layers while later ones are
    drawn.  Reading a layer's matrix waits until that layer is drawn, and
    raises the draw's error if it failed before.
    """
    d, mlp = cfg.d, cfg.mlp
    shapes = [(d, d)] * 4 + [(d, mlp), (mlp, d)]
    stacks = [np.empty((cfg.num_layers, rows, cols), dtype=np.float32) for rows, cols in shapes]
    draw = _LayerDraw(np.random.default_rng(cfg.seed), 1.0 / math.sqrt(d), stacks)
    return ToyWeights(*(_DrawnLayers(stack, draw) for stack in stacks))


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
    """tanh-approximated GELU of float32 ``x``, written over ``x``.

    One temporary; every product and sum is the one the out-of-place
    0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))) rounds, in its
    order, so the bits are the same.
    """
    inner = np.float32(0.044715) * x
    inner *= x
    inner *= x
    inner += x
    inner *= np.float32(math.sqrt(2.0 / math.pi))
    np.tanh(inner, out=inner)
    inner += np.float32(1.0)
    x *= np.float32(0.5)
    x *= inner
    return x


def _value_rows(normed: np.ndarray, layer: int, cfg: ToyConfig, weights: ToyWeights):
    v = normed @ weights.wv[layer]
    if cfg.value_norm == "unit":
        norms = np.sqrt((v * v).sum(axis=1, keepdims=True, dtype=np.float32))
        if np.any(norms == 0):
            raise ValidationError(f"layer {layer}: zero-norm value row, cannot normalize")
        v = v / norms
    return v


def value_rows(x, layer: int, cfg: ToyConfig, weights: ToyWeights) -> np.ndarray:
    """The float32 [n, d] value rows ``layer_step`` computes from its input ``x``."""
    return _value_rows(_layernorm(np.asarray(x, dtype=np.float32)), layer, cfg, weights)


def layer_step(
    x: np.ndarray, layer: int, cfg: ToyConfig, weights: ToyWeights
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder layer over the current rows.

    Returns (next hidden states, head-averaged last-row attention).  The
    causal mask is over the current row order, which preserves the
    original order of any surviving tokens.
    """
    seq = x.shape[0]
    hd = cfg.d // cfg.heads
    normed = _layernorm(x)
    q = normed @ weights.wq[layer]
    k = normed @ weights.wk[layer]
    v = _value_rows(normed, layer, cfg, weights)

    qh = q.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    kh = k.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    vh = v.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    # in place on one buffer.  Keep this order (scale, mask, subtract the row
    # max, exp, divide by the row sum): scaling q instead of the logits, or
    # multiplying by the reciprocal of the sum, changes the rounding.  The
    # passes run over blocks of whole rows: each row still reduces its whole
    # length-seq axis, so the bits do not depend on the block size.  Left of
    # a block's diagonal tile the mask adds nothing (the bias would add 0),
    # right of it every logit becomes -inf.  Trimming the later passes to
    # the unmasked columns as well makes them strided, and slower.
    probs = qh @ kh.transpose(0, 2, 1)
    scale = np.float32(1.0 / math.sqrt(hd))
    block_rows = min(seq, max(1, SOFTMAX_BLOCK_BYTES // (cfg.heads * seq * probs.itemsize)))
    tile = np.triu(np.full((block_rows, block_rows), -np.inf, dtype=np.float32), k=1)
    for start in range(0, seq, block_rows):
        stop = min(start + block_rows, seq)
        block = probs[:, start:stop]
        block *= scale
        block[:, :, stop:] = -np.inf
        block[:, :, start:stop] += tile[: stop - start, : stop - start]
        block -= block.max(axis=-1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=-1, keepdims=True, dtype=np.float32)
    attn_out = (probs @ vh).transpose(1, 0, 2).reshape(seq, cfg.d) @ weights.wo[layer]

    mid = attn_out + x
    x_next = x + attn_out + _gelu(_layernorm(mid) @ weights.w1[layer]) @ weights.w2[layer]
    last_row = probs[:, -1, :].mean(axis=0)
    return x_next, last_row


@dataclass(frozen=True)
class ForwardRecord:
    """Full forward trace.

    ``hidden[l]``/``positions[l]`` describe the sequence entering layer l
    (index num_layers holds the final output); ``attn_last[l]`` was
    computed during layer l and aligns with ``positions[l]``.
    ``image_survivors[l]`` are the image indices alive entering layer l.
    """

    config: ToyConfig
    layout: TokenLayout
    hidden: tuple[np.ndarray, ...]
    positions: tuple[np.ndarray, ...]
    attn_last: tuple[np.ndarray, ...]
    image_survivors: tuple[np.ndarray, ...]


def forward(
    inputs,
    layout: TokenLayout,
    cfg: ToyConfig,
    weights: ToyWeights | None = None,
    prefix: ForwardRecord | None = None,
    prune_hook=None,
) -> ForwardRecord:
    """Run the decoder, optionally pruning image rows between layers.

    ``prune_hook`` is called after every layer with a ``StageInputs`` view
    (survivor indices, their scores from this layer's last-row attention,
    and this layer's input hidden states, a read-only view of its rows); it
    returns the image indices to keep, or None to keep everything.  Rows
    pruned at layer l are gone before layer l+1: later layers never see
    their keys or values.

    ``prefix`` is the record of an unpruned forward of the same inputs
    through the first layers of this model, computed with the same
    weights (which cannot be checked here).  While no image row has been
    pruned, each layer it holds takes its output and last-row attention
    from it instead of running ``layer_step``; the hook is still called at
    every layer with the same view, and the record is the one a run
    without ``prefix`` gives.  A prefix with another layout, a config that
    differs in more than ``num_layers``, more layers than ``cfg``, any
    pruned token, or another positioned input raises ``ValidationError``.
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
    reused = 0
    if prefix is not None:
        _check_prefix(prefix, x, layout, cfg)
        reused = prefix.config.num_layers

    hidden = [x]
    pos_hist = [positions]
    alive_hist = [alive]
    attn_rows: list[np.ndarray] = []

    for layer in range(cfg.num_layers):
        if layer < reused:
            x_next, last_row = prefix.hidden[layer + 1], prefix.attn_last[layer]
        else:
            x_next, last_row = layer_step(x, layer, cfg, weights)
            if not np.isfinite(x_next).all():
                raise ValidationError(f"non-finite activations after layer {layer}")
        attn_rows.append(last_row)

        if prune_hook is not None and alive.size > 0:
            # pruning keeps row order, so the alive image rows are contiguous
            image = slice(layout.n_system, layout.n_system + alive.size)
            image_rows = x[image]
            image_rows.flags.writeable = False  # the record keeps x
            kept = prune_hook(StageInputs(layer, alive, last_row[image], image_rows, layout))
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
                    rows = np.r_[:image.start, image.start + np.searchsorted(alive, kept),
                                 image.stop:x_next.shape[0]]
                    x_next = x_next[rows]
                    positions = positions[rows]
                    reused = 0  # the prefix holds the unpruned rows only
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
        image_survivors=tuple(alive_hist),
    )


def _check_prefix(
    prefix: ForwardRecord, positioned: np.ndarray, layout: TokenLayout, cfg: ToyConfig
) -> None:
    """Raise unless ``prefix`` is an unpruned head of ``forward(inputs, layout, cfg)``."""
    if prefix.layout != layout:
        raise ValidationError(f"prefix layout {prefix.layout} is not {layout}")
    if replace(prefix.config, num_layers=cfg.num_layers) != cfg:
        raise ValidationError(f"prefix config {prefix.config} does not match {cfg}")
    if prefix.config.num_layers > cfg.num_layers:
        raise ValidationError(
            f"prefix has {prefix.config.num_layers} layers, model has {cfg.num_layers}"
        )
    if prefix.positions[-1].size != layout.total():
        raise ValidationError("prefix has pruned tokens")
    if not np.array_equal(prefix.hidden[0], positioned):
        raise ValidationError("prefix was run on other inputs")


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
        present = record.positions[layer]  # ascending: pruning keeps the order
        idx = np.searchsorted(present, wanted)
        found = idx < present.size
        found[found] = present[idx[found]] == wanted[found]
        if not found.all():
            missing = wanted[np.argmin(found)]
            raise ValidationError(f"position {missing} not alive at layer {layer}")
        return record.hidden[layer][idx].astype(np.float64)

    va, vb = rows(a), rows(b)
    if metric == "euclidean":
        return float(np.linalg.norm(va - vb, axis=1).mean())
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValidationError("cosine undefined for zero-norm hidden state")
    return float(((va * vb).sum(axis=1) / (na * nb)).mean())


def _probe_rows(attn, values) -> tuple[np.ndarray, np.ndarray]:
    """float64 [n] attention and C-ordered [n, d] value rows, so that the
    column sums do not depend on the caller's memory layout."""
    a = np.asarray(attn, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64, order="C")
    if a.ndim != 1 or v.ndim != 2 or v.shape[0] != a.shape[0]:
        raise ValidationError(f"attn must be [n] and values [n, d], got {a.shape} and {v.shape}")
    return a, v


def local_prune_error(attn, values, kept) -> float:
    """Perturbation of a layer's last-row attention output if only the
    ``kept`` image tokens contribute: L2 norm of sum_{i dropped} a_i v_i.

    ``attn`` is the layer's [n] last-row attention over its image tokens,
    ``values`` their [n, d] rows (``value_rows``) and ``kept`` indices into
    them (after a prune, map image indices to rows with
    ``np.searchsorted(record.image_survivors[l], kept)``).  This is the local
    cost a pruning decision inflicts on that layer's own output.
    """
    a, v = _probe_rows(attn, values)
    kept = np.asarray(list(kept), dtype=np.int64)
    if kept.size and (kept.min() < 0 or kept.max() >= a.size):
        raise ValidationError(f"kept indices must be in [0, {a.size})")
    drop = np.ones(a.size, dtype=bool)
    drop[kept] = False
    return float(np.linalg.norm((a[drop, None] * v[drop]).sum(axis=0)))


def single_layer_optimality_check(
    attn, values, k: int, max_image_tokens: int = 12
) -> tuple[float, float]:
    """Attention top-k versus the exhaustive best keep-set at one layer.

    The perturbation of keeping set S is ``local_prune_error`` of S, the
    L2 norm of sum_{i not in S} a_i v_i.  Returns (top-k error, exhaustive
    minimum).  With equal-norm mutually orthogonal value rows the two
    coincide; with unequal norms top-k can be strictly worse.  Refuses more
    than ``max_image_tokens`` image tokens.
    """
    a, v = _probe_rows(attn, values)
    n = a.size
    if n == 0:
        raise ValidationError("no image tokens alive")
    if n > max_image_tokens:
        raise ValidationError(
            f"{n} image tokens alive, exhaustive check capped at {max_image_tokens}"
        )
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")

    weighted = a[:, None] * v
    total = weighted.sum(axis=0)

    def dropped_norm(keep: tuple[int, ...]) -> float:
        kept_sum = weighted[list(keep)].sum(axis=0)
        return float(np.linalg.norm(total - kept_sum))

    order = np.lexsort((np.arange(n), -a))
    err_topk = dropped_norm(tuple(int(i) for i in order[:k]))
    err_best = min(dropped_norm(keep) for keep in itertools.combinations(range(n), k))
    return err_topk, err_best
