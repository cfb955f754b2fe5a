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

Attention runs one head at a time, with the softmax in place on one
float32 [n, n] logits buffer, so the attention memory of a layer is one
head's logits, not all heads'.  Each head makes the ``q @ k.T`` and
``probs @ v`` SGEMM calls that a batched matmul over all heads makes, and
the head-averaged last row is taken from a [heads, n] stack of the heads'
last rows.  The softmax passes run over blocks of query rows holding
about ``SOFTMAX_BLOCK_BYTES`` (1 MiB) of one head's logits, whole rows, so
that each block stays in cache across them; a buffer smaller than that is
one block.  Each block of rows [start, stop) is scaled, its columns
>= stop are set to -inf, and a float32 triangular bias (0 / -inf) is added
on its [start:stop, start:stop] diagonal tile only; the max, subtract,
exp, sum and divide passes then run over whole contiguous rows.  No key is
cut off: each row still reduces its whole length-n axis.  The outputs are
bit-identical to a batched out-of-place softmax with an ``np.where`` mask,
which the tests keep as their reference.

``forward`` can start from the record of a shallower unpruned forward of
the same inputs and weights (its ``prefix``): until the first prune, the
layers that record holds are read from it instead of being run again.
The outputs are the bits a full run gives.

``Forward`` is a forward run one layer per ``step``.  ``forward_many``
steps several forwards side by side on a pool, from one shared head, and
its workers draw the weights as they go into ``WEIGHT_WINDOW`` layer
slots: at most that many layers ahead of the slowest forward, a layer's
slot freed once every forward has run it.  So a deep model holds a few
layers of weights, not all of them, and the records are those of one
whole forward after another.  ``init_weights`` draws the same bits, every
layer on the calling thread before it returns.  Nothing here starts a
thread: ``forward_many`` runs on the caller's pool.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ValidationError
from .selector import StageInputs, stage_peak_bytes
from .trace import DISTANCE_METRICS, VALUE_NORM_MODES, TokenLayout

# logits per softmax block in ``layer_step``: one head, whole rows
SOFTMAX_BLOCK_BYTES = 1 << 20
# the layers of weights ``forward_many`` holds: its draw runs at most this
# many layers ahead of the slowest forward
WEIGHT_WINDOW = 8
# float64 bytes of the block of rows the weight draw casts to float32 at once
DRAW_BLOCK_BYTES = 1 << 19
# the most image tokens ``single_layer_optimality_check`` tries every keep-set of
MAX_EXHAUSTIVE_IMAGE_TOKENS = 12


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

    Each field is a tuple of one matrix per layer.  Inside ``forward_many``
    the fields are the streamed layers instead, indexed by layer alone.
    """

    wq: tuple[np.ndarray, ...]
    wk: tuple[np.ndarray, ...]
    wv: tuple[np.ndarray, ...]
    wo: tuple[np.ndarray, ...]
    w1: tuple[np.ndarray, ...]
    w2: tuple[np.ndarray, ...]


class _Draw:
    """The weights of a config, drawn one layer at a time by ``draw_next``.

    Draw order is fixed (one generator seeded with ``cfg.seed``; per layer
    wq, wk, wv, wo, w1, w2, each drawn in float64 and cast to float32) so a
    seed pins every parameter bit.  Layer l is written into slot l mod
    ``slots`` of float32 [slots, rows, cols] stacks allocated here, so
    drawing layer l overwrites layer l - ``slots``: a caller that draws
    more layers than slots must ``release`` that layer first.  A failed
    draw is the error of its layer and of every later one.  ``condition``
    guards the state and is notified at each drawn layer.
    """

    def __init__(self, cfg: ToyConfig, slots: int) -> None:
        d, mlp = cfg.d, cfg.mlp
        self.num_layers, self.slots = cfg.num_layers, slots
        self.condition = threading.Condition()
        self.drawn = 0  # the layers below this one are drawn
        self.released = 0  # and those below this one may be overwritten
        self.error: BaseException | None = None
        shapes = [(d, d)] * 4 + [(d, mlp), (mlp, d)]
        self._stacks = [np.empty((slots, rows, cols), dtype=np.float32) for rows, cols in shapes]
        self._rng = np.random.default_rng(cfg.seed)
        self._bound = 1.0 / math.sqrt(d)

    def draw_next(self) -> bool:
        """Draw layer ``drawn``; False if the draw failed.  One thread at a
        time may call it.

        Each matrix is drawn a block of rows at a time: the generator fills
        rows in order, so the bits are those of one draw of the matrix, and
        the float64 temporary is one block of about ``DRAW_BLOCK_BYTES``.
        """
        layer = self.drawn
        try:
            for stack in self._stacks:
                matrix = stack[layer % self.slots]
                rows, cols = matrix.shape
                step = max(1, DRAW_BLOCK_BYTES // (8 * cols))
                for start in range(0, rows, step):
                    stop = min(start + step, rows)
                    matrix[start:stop] = self._rng.uniform(-self._bound, self._bound,
                                                           size=(stop - start, cols))
        except BaseException as exc:  # not re-raised here: the readers raise it
            with self.condition:
                self.error = exc
                self.condition.notify_all()
            return False
        with self.condition:
            self.drawn = layer + 1
            self.condition.notify_all()
        return True

    def ready(self, layer: int) -> bool:
        """Whether reading ``layer`` returns or raises; call it holding
        ``condition``."""
        return layer < self.drawn or self.error is not None

    def layer(self, layer: int) -> tuple[np.ndarray, ...]:
        """The six matrices of ``layer``, which must be ``ready``."""
        with self.condition:
            if layer >= self.drawn:
                raise self.error or RuntimeError(f"the weights of layer {layer} are not drawn")
            if layer < self.released:
                raise RuntimeError(f"the weights of layer {layer} were released")
            return tuple(stack[layer % self.slots] for stack in self._stacks)

    def release(self, mark: int) -> None:
        """Free the slots of the drawn layers below ``mark``."""
        with self.condition:
            self.released = max(self.released, min(mark, self.drawn))


class _DrawnLayers:
    """One field's per-layer matrices, read from a ``_Draw``."""

    def __init__(self, draw: _Draw, field: int) -> None:
        self._draw = draw
        self._field = field

    def __getitem__(self, layer: int) -> np.ndarray:
        return self._draw.layer(layer)[self._field]


def init_weights(cfg: ToyConfig) -> ToyWeights:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) weights, every layer drawn
    (see ``_Draw``) on the calling thread before this returns; a failed
    draw raises here."""
    draw = _Draw(cfg, slots=cfg.num_layers)
    while draw.drawn < cfg.num_layers:
        if not draw.draw_next():
            raise draw.error
    return ToyWeights(*zip(*(draw.layer(layer) for layer in range(cfg.num_layers))))


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
    # one head at a time, in place on one [seq, seq] buffer; each head's
    # ``q @ k.T`` and ``probs @ v`` are the SGEMM calls a batched matmul
    # over all heads makes.  Keep this order (scale, mask, subtract the row
    # max, exp, divide by the row sum): scaling q instead of the logits, or
    # multiplying by the reciprocal of the sum, changes the rounding.  The
    # passes run over blocks of whole rows: each row still reduces its whole
    # length-seq axis, so the bits do not depend on the block size.  Left of
    # a block's diagonal tile the mask adds nothing (the bias would add 0),
    # right of it every logit becomes -inf.  Trimming the later passes to
    # the unmasked columns as well makes them strided, and slower.
    probs = np.empty((seq, seq), dtype=np.float32)
    heads_out = np.empty((cfg.heads, seq, hd), dtype=np.float32)
    last_rows = np.empty((cfg.heads, seq), dtype=np.float32)
    scale = np.float32(1.0 / math.sqrt(hd))
    block_rows = min(seq, max(1, SOFTMAX_BLOCK_BYTES // (seq * probs.itemsize)))
    tile = np.triu(np.full((block_rows, block_rows), -np.inf, dtype=np.float32), k=1)
    for head in range(cfg.heads):
        np.matmul(qh[head], kh[head].T, out=probs)
        for start in range(0, seq, block_rows):
            stop = min(start + block_rows, seq)
            block = probs[start:stop]
            block *= scale
            block[:, stop:] = -np.inf
            block[:, start:stop] += tile[: stop - start, : stop - start]
            block -= block.max(axis=-1, keepdims=True)
            np.exp(block, out=block)
            block /= block.sum(axis=-1, keepdims=True, dtype=np.float32)
        np.matmul(probs, vh[head], out=heads_out[head])
        last_rows[head] = probs[-1]
    attn_out = heads_out.transpose(1, 0, 2).reshape(seq, cfg.d) @ weights.wo[layer]

    mid = attn_out + x
    x_next = x + attn_out + _gelu(_layernorm(mid) @ weights.w1[layer]) @ weights.w2[layer]
    return x_next, last_rows.mean(axis=0)


@dataclass(frozen=True)
class ForwardRecord:
    """Full forward trace.

    ``hidden[l]``/``positions[l]`` describe the sequence entering layer l
    (index num_layers holds the final output); ``attn_last[l]`` was
    computed during layer l and aligns with ``positions[l]``.
    ``image_survivors[l]`` are the image indices alive entering layer l.
    A record of ``forward(..., text_only=True)`` holds only the last
    ``layout.n_text`` rows of ``hidden``, ``positions`` and ``attn_last``
    at every depth, the text rows, which pruning never removes.
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
    text_only: bool = False,
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

    With ``text_only`` the record keeps copies of the text rows alone (see
    ``ForwardRecord``), cut as each layer is recorded, so the other rows
    are freed while the forward runs; such a record cannot be a prefix.
    """
    run = Forward(inputs, layout, cfg, weights, prefix, text_only, prune_hook)
    while not run.done:
        run.step()
    return run.record()


class Forward:
    """A ``forward`` run one layer at a time.

    Takes ``forward``'s arguments.  Each ``step`` runs layer ``layer``; the
    first also checks the inputs and the prefix and positions the inputs,
    so that constructing one costs nothing.  ``record`` is the record once
    ``done``.
    """

    def __init__(
        self,
        inputs,
        layout: TokenLayout,
        cfg: ToyConfig,
        weights: ToyWeights | None = None,
        prefix: ForwardRecord | None = None,
        text_only: bool = False,
        prune_hook=None,
    ) -> None:
        self.layout, self.cfg = layout, cfg
        self._inputs, self._weights = inputs, weights
        self._prefix, self._text_only, self._hook = prefix, text_only, prune_hook
        # the layers read from the prefix, as it says until the first step checks it
        self._reused = 0 if prefix is None else prefix.config.num_layers
        self.layer = 0

    def _start(self) -> None:
        layout, cfg = self.layout, self.cfg
        x = np.asarray(self._inputs, dtype=np.float32)
        self._inputs = None
        if x.ndim != 2 or x.shape != (layout.total(), cfg.d):
            raise ValidationError(
                f"inputs must be [{layout.total()}, {cfg.d}], got {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValidationError("inputs contain non-finite values")
        if self._weights is None:
            self._weights = init_weights(cfg)
        self._positions = np.arange(layout.total(), dtype=np.int64)
        self._x = x + sinusoidal_encoding(self._positions, cfg.d)
        self._alive = np.arange(layout.n_image, dtype=np.int64)
        if self._prefix is not None:
            _check_prefix(self._prefix, self._x, layout, cfg)
        self._hidden = [self._recorded(self._x)]
        self._pos_hist = [self._recorded(self._positions)]
        self._alive_hist = [self._alive]
        self._attn_rows: list[np.ndarray] = []

    @property
    def done(self) -> bool:
        return self.layer == self.cfg.num_layers

    @property
    def reads_weights(self) -> bool:
        """Whether the next ``step`` runs ``layer_step``, and so reads the
        weights of ``layer``, rather than reading the prefix."""
        return self.layer >= self._reused

    def _recorded(self, rows: np.ndarray) -> np.ndarray:
        return rows[rows.shape[0] - self.layout.n_text:].copy() if self._text_only else rows

    def step(self) -> None:
        if self.layer == 0:
            self._start()
        layer, layout, x, alive = self.layer, self.layout, self._x, self._alive
        if layer < self._reused:
            x_next, last_row = self._prefix.hidden[layer + 1], self._prefix.attn_last[layer]
        else:
            x_next, last_row = layer_step(x, layer, self.cfg, self._weights)
            if not np.isfinite(x_next).all():
                raise ValidationError(f"non-finite activations after layer {layer}")
        self._attn_rows.append(self._recorded(last_row))

        if self._hook is not None and alive.size > 0:
            # pruning keeps row order, so the alive image rows are contiguous
            image = slice(layout.n_system, layout.n_system + alive.size)
            image_rows = x[image]
            image_rows.flags.writeable = False  # a full record keeps x
            kept = self._hook(StageInputs(layer, alive, last_row[image], image_rows, layout))
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
                    self._positions = self._positions[rows]
                    self._reused = 0  # the prefix holds the unpruned rows only
                self._alive = alive = kept

        self._x = x_next
        self._hidden.append(self._recorded(x_next))
        self._pos_hist.append(self._recorded(self._positions))
        self._alive_hist.append(alive)
        self.layer = layer + 1

    def record(self) -> ForwardRecord:
        return ForwardRecord(
            config=self.cfg,
            layout=self.layout,
            hidden=tuple(self._hidden),
            positions=tuple(self._pos_hist),
            attn_last=tuple(self._attn_rows),
            image_survivors=tuple(self._alive_hist),
        )


def forward_many(
    inputs, layout: TokenLayout, cfg: ToyConfig, hooks, head_layers: int, pool, workers: int
) -> list[ForwardRecord]:
    """``forward(inputs, layout, cfg, weights, head, True, prune_hook=hook)``
    for each of ``hooks``, run side by side, layer by layer, on ``workers``
    jobs of the executor ``pool``, with the weights streamed.

    With ``head_layers`` > 0, ``head`` is an unpruned forward through the
    first ``head_layers`` layers, run once, first; no hook may prune before
    its last layer.  The jobs draw the weights of ``cfg.seed`` as they go,
    the bits ``init_weights`` draws, into ``WEIGHT_WINDOW`` layer slots: at
    most that many layers ahead of the slowest forward, a layer's slot
    freed once every forward has run it.  The records and the error raised
    are those of the forwards run one after another (see ``_advance``).
    """
    draw = _Draw(cfg, slots=min(WEIGHT_WINDOW, cfg.num_layers))
    weights = ToyWeights(*(_DrawnLayers(draw, field) for field in range(len(fields(ToyWeights)))))
    head = None
    if head_layers:
        run = Forward(inputs, layout, replace(cfg, num_layers=head_layers), weights)
        _advance([run], draw, pool, workers)
        head = run.record()
    runs = [Forward(inputs, layout, cfg, weights, head, True, hook) for hook in hooks]
    _advance(runs, draw, pool, workers)
    return [run.record() for run in runs]


def _advance(runs: list[Forward], draw: _Draw, pool, workers: int) -> None:
    """Run every layer of ``runs`` on up to ``workers`` jobs of ``pool``,
    drawing their weights.

    A job takes the next layer of ``runs[0]`` first, the longest chain;
    then the draw of the next layer's weights, while ``draw`` has a free
    slot; then the next layer of the run furthest behind, the earlier one
    on ties.  A run is taken only once the weights its layer reads are
    drawn, and after each layer the weights below every run's layer are
    released.  A run that fails stops, and so do the runs after it: the
    error raised is that of the first failed run in list order, as running
    the runs one after another would raise, so the runs before it go on to
    their ends.
    """
    busy = [False] * len(runs)
    errors: list[BaseException | None] = [None] * len(runs)
    drawing = False

    def stopped(i: int) -> bool:
        return any(error is not None for error in errors[: i + 1])

    def ready(i: int) -> bool:
        run = runs[i]
        return (not (busy[i] or run.done or stopped(i))
                and (not run.reads_weights or draw.ready(run.layer)))

    def pick() -> int | None:
        """A run's index, -1 for the draw, or None for nothing to do now."""
        if ready(0):
            return 0
        if (not drawing and draw.error is None
                and draw.drawn < min(draw.released + draw.slots, draw.num_layers)):
            return -1
        behind = sorted(range(1, len(runs)), key=lambda i: runs[i].layer)
        return next((i for i in behind if ready(i)), None)

    def work() -> None:
        nonlocal drawing
        with draw.condition:
            while not all(run.done or stopped(i) for i, run in enumerate(runs)):
                task = pick()
                if task is None:
                    draw.condition.wait()
                    continue
                if task < 0:
                    drawing = True
                    draw.condition.release()
                    draw.draw_next()  # a failure is raised by the runs that read it
                    draw.condition.acquire()
                    drawing = False
                    continue
                busy[task] = True
                draw.condition.release()
                error = None
                try:
                    runs[task].step()
                except BaseException as exc:  # raised below, in run order
                    error = exc
                draw.condition.acquire()
                busy[task], errors[task] = False, error
                held = [run.layer for i, run in enumerate(runs) if busy[i] or not stopped(i)]
                if held:
                    draw.release(min(held))
                draw.condition.notify_all()

    for job in [pool.submit(work) for _ in range(min(workers, len(runs) + 1))]:
        job.result()
    first = next((error for error in errors if error is not None), None)
    if first is not None:
        raise first


def forward_many_peak_bytes(layout: TokenLayout, cfg: ToyConfig, hooks, head_layers: int,
                            workers: int, streamed: bool = True) -> int:
    """Estimated peak bytes of ``forward_many(inputs, layout, cfg, hooks,
    head_layers, pool, workers)`` with hooks None or ``ScheduleDriver``s,
    inputs included; without ``streamed``, of those forwards run one after
    another on every layer of ``init_weights``.  It counts the weights held,
    the draw's float64 block, the head's and the text-only records, each
    forward's rows, and the temporaries of the ``workers`` forwards with
    the most: a ``layer_step``'s over the whole sequence (one head's [n, n]
    logits and mask tile, eight [n, d] and two [n, max(mlp, d)] float32
    matrices) or a stage's, its new rows and ``selector.stage_peak_bytes``.
    """
    n, d, mlp = layout.total(), cfg.d, cfg.mlp
    block_rows = min(n, max(1, SOFTMAX_BLOCK_BYTES // (4 * n)))
    step = 4 * n * n + 4 * block_rows**2 + 32 * n * d + 8 * n * max(mlp, d)
    steps = sorted((step if hook is None else max(step, 4 * n * d + stage_peak_bytes(
        hook.schedule, layout.n_image, dict.fromkeys((s.layer for s in hook.schedule.stages), d),
        hook.cfg.semantic_metric)) for hook in hooks), reverse=True)
    held = min(WEIGHT_WINDOW, cfg.num_layers) if streamed else cfg.num_layers
    under_way = len(hooks) if streamed else 1
    return (4 * held * (4 * d * d + 2 * d * mlp) + max(DRAW_BLOCK_BYTES, 8 * max(d, mlp))
            + (head_layers + 1 if head_layers else 0) * n * (4 * d + 20)
            + len(hooks) * (cfg.num_layers + 1) * (layout.n_text * (4 * d + 12)
                                                   + 8 * layout.n_image)
            + (1 + under_way) * 4 * n * d + sum(steps[:workers]))


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
    if prefix.positions[0].size != layout.total():
        raise ValidationError("prefix holds only the text rows")
    if prefix.positions[-1].size != layout.total():
        raise ValidationError("prefix has pruned tokens")
    if not np.array_equal(prefix.hidden[0], positioned):
        raise ValidationError("prefix was run on other inputs")


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
    attn, values, k: int, max_image_tokens: int = MAX_EXHAUSTIVE_IMAGE_TOKENS
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
