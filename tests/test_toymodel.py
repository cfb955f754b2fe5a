"""Deterministic toy decoder: causality, pruning hook behavior, and probes."""

import dataclasses
import gc
import json
import math
import threading
import weakref

import numpy as np
import pytest

import btp.cli
import btp.toymodel
from btp.errors import ValidationError
from btp.selector import ScheduleDriver
from btp.toymodel import (
    ForwardRecord,
    ToyConfig,
    ToyWeights,
    _layernorm,
    forward,
    init_weights,
    layer_output_distance,
    layer_step,
    local_prune_error,
    single_layer_optimality_check,
    sinusoidal_encoding,
    value_rows,
)
from btp.trace import PruningSchedule, PruningStage, TokenLayout

LAYOUT = TokenLayout(n_system=2, n_image=8, n_text=3, grid_rows=2, grid_cols=4)
CFG = ToyConfig(num_layers=3, d=16, heads=2, mlp=32, seed=5)


def _inputs(seed, layout=LAYOUT, cfg=CFG):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((layout.total(), cfg.d)).astype(np.float32)


def _image_rows(rec, layer):
    """Layer ``layer``'s last-row attention and value rows over its image tokens."""
    # pruning keeps row order, so the alive image rows are contiguous
    start = rec.layout.n_system
    image = slice(start, start + rec.image_survivors[layer].size)
    values = value_rows(rec.hidden[layer], layer, rec.config, init_weights(rec.config))
    return rec.attn_last[layer][image], values[image]


# ---------------------------------------------------------------------------
# config and weights


def test_config_validation():
    with pytest.raises(ValidationError):
        ToyConfig(num_layers=0, d=4, heads=2, mlp=8)
    with pytest.raises(ValidationError):
        ToyConfig(num_layers=1, d=5, heads=2, mlp=8)
    with pytest.raises(ValidationError):
        ToyConfig(num_layers=1, d=4, heads=2, mlp=8, value_norm="l2")
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        ToyConfig(num_layers=1, d=4, heads=2, mlp=8, seed=-1)


def test_weights_deterministic_in_seed():
    a = init_weights(CFG)
    b = init_weights(CFG)
    other = init_weights(ToyConfig(num_layers=3, d=16, heads=2, mlp=32, seed=6))
    for field in ("wq", "wk", "wv", "wo", "w1", "w2"):
        for l in range(CFG.num_layers):
            np.testing.assert_array_equal(getattr(a, field)[l], getattr(b, field)[l])
    assert not np.array_equal(other.wq[0], a.wq[0])


def _serial_init_weights(cfg):
    """One float32 matrix per draw: the reference for ``init_weights``,
    which writes the same draws into [layers, rows, cols] stacks."""
    rng = np.random.default_rng(cfg.seed)
    bound = 1.0 / math.sqrt(cfg.d)

    def draw(rows, cols):
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)

    layers = [
        [draw(cfg.d, cfg.d) for _ in range(4)] + [draw(cfg.d, cfg.mlp), draw(cfg.mlp, cfg.d)]
        for _ in range(cfg.num_layers)
    ]
    return ToyWeights(*(tuple(matrices) for matrices in zip(*layers)))


@pytest.mark.parametrize(
    "layers,d,mlp,seed", [(1, 4, 4, 0), (3, 16, 32, 5), (5, 8, 20, 11), (6, 12, 6, 2**40)]
)
def test_init_weights_matches_serial_draw(layers, d, mlp, seed):
    cfg = ToyConfig(num_layers=layers, d=d, heads=2, mlp=mlp, seed=seed)
    want = _serial_init_weights(cfg)
    got = init_weights(cfg)
    for field in dataclasses.fields(ToyWeights):
        pairs = zip(getattr(got, field.name), getattr(want, field.name), strict=True)
        for g, w in pairs:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_drawn_layers_index_like_a_tuple():
    got, want = init_weights(CFG), _serial_init_weights(CFG)
    assert len(got.w1) == CFG.num_layers
    assert got.w1[-1].tobytes() == want.w1[-1].tobytes()
    assert [m.tobytes() for m in got.wo[1:]] == [m.tobytes() for m in want.wo[1:]]
    with pytest.raises(IndexError):
        got.wq[CFG.num_layers]
    with pytest.raises(TypeError):
        got.wq["0"]


class _FailingDraw:
    """A generator whose ``uniform`` fails from the first matrix of
    ``layer`` on; everything else is the wrapped generator's."""

    def __init__(self, rng, layer):
        self._rng = rng
        self._layer = layer
        self._left = 6 * layer

    def uniform(self, *args, **kwargs):
        if self._left == 0:
            raise MemoryError(f"cannot draw layer {self._layer}")
        self._left -= 1
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _fail_draws_at_layer_3(monkeypatch):
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FailingDraw(real(seed), 3))


def _within(seconds, fn, *args):
    """``fn(*args)`` on a thread that must end within ``seconds``."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:
            outcome.append((False, exc))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def test_forward_raises_a_failed_draw_without_blocking(monkeypatch):
    want = _serial_init_weights(DEEP)
    _fail_draws_at_layer_3(monkeypatch)
    threads = threading.active_count()
    weights = init_weights(DEEP)
    with pytest.raises(MemoryError, match="cannot draw layer 3"):
        _within(30, forward, _inputs(1), LAYOUT, DEEP, weights)
    assert threading.active_count() == threads
    # the layers drawn before the failure stay readable, the rest raise
    assert weights.w2[2].tobytes() == want.w2[2].tobytes()
    with pytest.raises(MemoryError, match="cannot draw layer 3"):
        weights.wq[4]


@pytest.mark.parametrize("workers", [1, 4])
def test_simulate_reports_a_failed_draw_as_one_line(tmp_path, capsys, monkeypatch, workers):
    _fail_draws_at_layer_3(monkeypatch)
    monkeypatch.setenv("BTP_THREADS", str(workers))
    sched = tmp_path / "schedule.json"
    sched.write_text(json.dumps(PruningSchedule((PruningStage(1, 0.5, 0.5),), 5).to_json_dict()))
    threads = threading.active_count()
    code = _within(30, btp.cli.main, ["simulate", "--schedule", str(sched), "--layers", "5"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: out of memory: cannot draw layer 3\n")
    assert threading.active_count() == threads


def test_sinusoidal_encoding_basics():
    enc = sinusoidal_encoding(np.arange(5), 6)
    assert enc.shape == (5, 6) and enc.dtype == np.float32
    np.testing.assert_allclose(enc[0], [0, 1, 0, 1, 0, 1])
    assert np.all(np.abs(enc) <= 1.0)


# ---------------------------------------------------------------------------
# layer step against the out-of-place reference


def _reference_gelu(x):
    c = np.float32(math.sqrt(2.0 / math.pi))
    return np.float32(0.5) * x * (
        np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x))
    )


def _reference_layer_step(x, layer, cfg, weights):
    """``layer_step`` with a boolean ``np.triu`` mask, ``np.where``, and a
    softmax and GELU that allocate each intermediate: the in-place version
    must give the same bits."""
    seq = x.shape[0]
    hd = cfg.d // cfg.heads
    normed = _layernorm(x)
    q = normed @ weights.wq[layer]
    k = normed @ weights.wk[layer]
    v = normed @ weights.wv[layer]
    if cfg.value_norm == "unit":
        norms = np.sqrt((v * v).sum(axis=1, keepdims=True, dtype=np.float32))
        v = v / norms

    qh = q.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    kh = k.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    vh = v.reshape(seq, cfg.heads, hd).transpose(1, 0, 2)
    logits = (qh @ kh.transpose(0, 2, 1)) * np.float32(1.0 / math.sqrt(hd))
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    logits = np.where(mask[None, :, :], np.float32(-np.inf), logits)
    logits = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(logits)
    probs = expd / expd.sum(axis=-1, keepdims=True, dtype=np.float32)
    attn_out = (probs @ vh).transpose(1, 0, 2).reshape(seq, cfg.d) @ weights.wo[layer]

    mid = attn_out + x
    mlp = _reference_gelu(_layernorm(mid) @ weights.w1[layer]) @ weights.w2[layer]
    x_next = x + attn_out + mlp
    last_row = probs[:, -1, :].mean(axis=0)
    return x_next, last_row, v


# d = 48 keeps 1/sqrt(d/heads) off a power of two for every head count, so
# scaling q in place of the logits would change bits and fail here
@pytest.mark.parametrize("value_norm", ["raw", "unit"])
@pytest.mark.parametrize("heads", [1, 2, 8])
@pytest.mark.parametrize("seq", [1, 2, 19, 300, 675])
def test_layer_step_matches_reference_bitwise(seq, heads, value_norm):
    cfg = ToyConfig(num_layers=2, d=48, heads=heads, mlp=96, seed=seq, value_norm=value_norm)
    weights = init_weights(cfg)
    x = np.random.default_rng(seq).standard_normal((seq, cfg.d)).astype(np.float32)
    for layer in range(cfg.num_layers):
        got = layer_step(x, layer, cfg, weights)
        want = _reference_layer_step(x, layer, cfg, weights)
        assert len(got) == 2
        got = (*got, value_rows(x, layer, cfg, weights))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        x = got[0]


# ---------------------------------------------------------------------------
# forward pass


def test_forward_record_shapes():
    rec = forward(_inputs(1), LAYOUT, CFG)
    weights = init_weights(CFG)
    L, total = CFG.num_layers, LAYOUT.total()
    assert len(rec.hidden) == len(rec.positions) == len(rec.image_survivors) == L + 1
    assert len(rec.attn_last) == L
    for h in rec.hidden:
        assert h.shape == (total, CFG.d) and h.dtype == np.float32
    for layer, row in enumerate(rec.attn_last):
        assert row.shape == (total,)
        v = value_rows(rec.hidden[layer], layer, CFG, weights)
        assert v.shape == (total, CFG.d) and v.dtype == np.float32
        assert row.sum() == pytest.approx(1.0, abs=1e-6)


def test_value_rows_follow_survivors_after_a_prune():
    hook = ScheduleDriver(PruningSchedule((PruningStage(1, 0.5, 0.5),), CFG.num_layers))
    rec = forward(_inputs(1), LAYOUT, CFG, prune_hook=hook)
    assert rec.positions[2].size < LAYOUT.total()
    v = value_rows(rec.hidden[2], 2, CFG, init_weights(CFG))
    assert v.shape == (rec.positions[2].size, CFG.d)


def test_forward_input_validation():
    with pytest.raises(ValidationError):
        forward(np.zeros((3, CFG.d), dtype=np.float32), LAYOUT, CFG)
    bad = _inputs(2)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        forward(bad, LAYOUT, CFG)


def test_unit_value_norm_mode():
    cfg = ToyConfig(num_layers=2, d=16, heads=2, mlp=32, value_norm="unit")
    rec = forward(_inputs(3, cfg=cfg), LAYOUT, cfg)
    weights = init_weights(cfg)
    for layer, h in enumerate(rec.hidden[:-1]):
        v = value_rows(h, layer, cfg, weights)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-6)


def test_unit_value_norm_rejects_a_zero_value_row():
    cfg = ToyConfig(num_layers=2, d=16, heads=2, mlp=32, value_norm="unit")
    weights = _serial_init_weights(cfg)
    weights = dataclasses.replace(weights, wv=tuple(np.zeros_like(m) for m in weights.wv))
    with pytest.raises(ValidationError, match="layer 0: zero-norm value row"):
        forward(_inputs(3, cfg=cfg), LAYOUT, cfg, weights)


def test_forward_rejects_non_finite_activations():
    weights = _serial_init_weights(CFG)
    # each MLP matrix times 1e30: the down-projection's sums pass float32's max
    huge = {w: tuple(m * np.float32(1e30) for m in getattr(weights, w)) for w in ("w1", "w2")}
    with np.errstate(all="ignore"), pytest.raises(
        ValidationError, match="non-finite activations after layer 0"
    ):
        forward(_inputs(3), LAYOUT, CFG, dataclasses.replace(weights, **huge))


def test_causal_prefix_is_bitwise_stable():
    """Perturbing the last token cannot touch any earlier row, exactly."""
    x = _inputs(4)
    y = x.copy()
    y[-1] += 1.0
    a = forward(x, LAYOUT, CFG)
    b = forward(y, LAYOUT, CFG)
    for ha, hb in zip(a.hidden, b.hidden):
        assert ha[:-1].tobytes() == hb[:-1].tobytes()
    assert not np.array_equal(a.hidden[-1][-1], b.hidden[-1][-1])


def test_keep_all_hook_is_invisible():
    x = _inputs(5)
    base = forward(x, LAYOUT, CFG)
    hooked = forward(x, LAYOUT, CFG, prune_hook=lambda view: view.survivors)
    for ha, hb in zip(base.hidden, hooked.hidden):
        assert ha.tobytes() == hb.tobytes()
    nohook = forward(x, LAYOUT, CFG, prune_hook=lambda view: None)
    for ha, hb in zip(base.hidden, nohook.hidden):
        assert ha.tobytes() == hb.tobytes()


def test_hook_sees_current_survivors_and_layer_state():
    x = _inputs(6)
    seen = []

    def hook(view):
        seen.append((view.layer, view.survivors.copy(), view.scores.copy(), view.hidden))
        return view.survivors[: max(1, view.survivors.size - 2)]

    rec = forward(x, LAYOUT, CFG, prune_hook=hook)
    assert [s[0] for s in seen] == [0, 1, 2]
    assert [s[1].size for s in seen] == [8, 6, 4]
    # scores are the image slice of that layer's recorded last attention row
    image_mask = (rec.positions[1] >= 2) & (rec.positions[1] < 10)
    np.testing.assert_array_equal(seen[1][2], rec.attn_last[1][image_mask])
    # hidden states are the recorded rows themselves, which a hook cannot write
    np.testing.assert_array_equal(seen[1][3], rec.hidden[1][image_mask])
    assert np.shares_memory(seen[1][3], rec.hidden[1])
    with pytest.raises(ValueError, match="read-only"):
        seen[1][3][0] = 0.0


def test_pruned_rows_are_physically_gone():
    x = _inputs(7)
    kept = np.array([0, 3, 5, 7])

    def hook(view):
        return kept if view.layer == 1 else None

    rec = forward(x, LAYOUT, CFG, prune_hook=hook)
    assert rec.hidden[2].shape[0] == LAYOUT.total() - 4
    np.testing.assert_array_equal(rec.image_survivors[2], kept)
    np.testing.assert_array_equal(
        rec.positions[2], [0, 1, 2, 5, 7, 9, 10, 11, 12]
    )


def test_pruning_cannot_touch_earlier_positions():
    """System rows precede the image segment, so causality shields them."""
    x = _inputs(8)
    base = forward(x, LAYOUT, CFG)
    pruned = forward(
        x, LAYOUT, CFG,
        prune_hook=lambda view: view.survivors[:2] if view.layer == 0 else None,
    )
    for l in range(CFG.num_layers + 1):
        assert base.hidden[l][:2].tobytes() == pruned.hidden[l][:2].tobytes()
    # but the text rows, downstream of the cut, do diverge
    text_base = base.hidden[2][-3:]
    text_pruned = pruned.hidden[2][-3:]
    assert not np.array_equal(text_base, text_pruned)


def test_hook_return_validation():
    x = _inputs(9)
    with pytest.raises(ValidationError, match="duplicates"):
        forward(x, LAYOUT, CFG, prune_hook=lambda v: np.array([1, 1]))
    with pytest.raises(ValidationError, match="non-survivor"):
        forward(
            x, LAYOUT, CFG,
            prune_hook=lambda v: np.array([0]) if v.layer == 1 else np.array([1, 2]),
        )


def test_forward_continues_after_drop_all():
    # a final stage may empty the image segment before the last layer; the
    # remaining layers must still run (and stop consulting the hook)
    sched = PruningSchedule(stages=(PruningStage(1, 0.01, 1.0),), num_layers=3)
    driver = ScheduleDriver(sched)
    rec = forward(_inputs(10), LAYOUT, CFG, prune_hook=driver)
    assert rec.image_survivors[2].size == 0
    assert rec.image_survivors[3].size == 0
    assert rec.hidden[3].shape[0] == LAYOUT.n_system + LAYOUT.n_text
    assert rec.positions[3].tolist() == [0, 1, 10, 11, 12]


def test_driver_keeps_a_zero_norm_token_kept_by_attention():
    # the driver computes no diagnostics, so a zero-norm hidden state at a
    # token kept by attention raises neither in the forward nor after it
    sched = PruningSchedule((PruningStage(1, 0.5, 1.0),), CFG.num_layers)
    unzeroed = forward(_inputs(11), LAYOUT, CFG, prune_hook=ScheduleDriver(sched))
    token = int(unzeroed.image_survivors[2][0])
    driver = ScheduleDriver(sched)

    def hook(view):
        if view.layer == 1:
            hidden = view.hidden.copy()
            hidden[np.flatnonzero(view.survivors == token)] = 0.0
            view = dataclasses.replace(view, hidden=hidden)
        return driver(view)

    rec = forward(_inputs(11), LAYOUT, CFG, prune_hook=hook)
    assert token in rec.image_survivors[2]


def test_driver_holds_no_stage_inputs():
    sched = PruningSchedule((PruningStage(0, 0.75, 0.5), PruningStage(1, 0.5, 0.5)), CFG.num_layers)
    driver = ScheduleDriver(sched)
    seen = []

    def hook(view):
        seen.append(weakref.ref(view))
        return driver(view)

    rec = forward(_inputs(12), LAYOUT, CFG, prune_hook=hook)
    gc.collect()
    assert len(seen) == CFG.num_layers
    assert [ref() for ref in seen] == [None] * len(seen)
    # the stages at layers 0 and 1 ran: 8 image tokens, then 6, then 3
    assert [s.size for s in rec.image_survivors[:3]] == [8, 6, 3]


# ---------------------------------------------------------------------------
# forward from a shared unpruned head

DEEP = dataclasses.replace(CFG, num_layers=5)
HEAD_DEPTH = 3  # the prefix holds layers 0..2


def _head(x, depth=HEAD_DEPTH, layout=LAYOUT, cfg=DEEP):
    return forward(x, layout, dataclasses.replace(cfg, num_layers=depth), init_weights(cfg))


def _assert_same_record(a, b):
    for field in ("hidden", "attn_last", "positions", "image_survivors"):
        got, want = getattr(a, field), getattr(b, field)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), field


@pytest.fixture
def step_layers(monkeypatch):
    """The layers ``forward`` runs ``layer_step`` on, in call order."""
    layers = []

    def counting(x, layer, cfg, weights):
        layers.append(layer)
        return layer_step(x, layer, cfg, weights)

    monkeypatch.setattr(btp.toymodel, "layer_step", counting)
    return layers


@pytest.mark.parametrize("depth", range(1, DEEP.num_layers + 1))
def test_prefix_without_hook_is_invisible(depth, step_layers):
    x, weights = _inputs(14), init_weights(DEEP)
    whole = forward(x, LAYOUT, DEEP, weights)
    head = _head(x, depth)
    step_layers.clear()
    _assert_same_record(forward(x, LAYOUT, DEEP, weights, head), whole)
    assert step_layers == list(range(depth, DEEP.num_layers))


# a stage at layer 0, at the prefix's last layer and at the model's last layer
@pytest.mark.parametrize("stages", [[0], [HEAD_DEPTH - 1], [DEEP.num_layers - 1], [0, 2, 4]])
def test_prefix_under_schedule_driver_is_invisible(stages, step_layers):
    sched = PruningSchedule(
        tuple(PruningStage(layer, 0.5, 0.5) for layer in stages), DEEP.num_layers
    )
    x, weights = _inputs(15), init_weights(DEEP)
    seen = {}

    def recording(driver, key):
        def hook(view):
            seen.setdefault(key, []).append(view)
            return driver(view)
        return hook

    whole = forward(x, LAYOUT, DEEP, weights, prune_hook=recording(ScheduleDriver(sched), "whole"))
    head = _head(x)
    step_layers.clear()
    reused = forward(
        x, LAYOUT, DEEP, weights, head, prune_hook=recording(ScheduleDriver(sched), "reused")
    )
    _assert_same_record(reused, whole)
    assert step_layers == list(range(min(stages[0] + 1, HEAD_DEPTH), DEEP.num_layers))
    # the hook saw the same views at every layer
    assert [v.layer for v in seen["reused"]] == [v.layer for v in seen["whole"]]
    for a, b in zip(seen["reused"], seen["whole"]):
        for field in ("survivors", "scores", "hidden"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_prefix_reuse_stops_at_the_first_prune(step_layers):
    x, weights = _inputs(16), init_weights(DEEP)

    def hook(view):  # keeps all at layer 0, prunes inside the prefix at layer 1
        return view.survivors[:5] if view.layer == 1 else view.survivors

    whole = forward(x, LAYOUT, DEEP, weights, prune_hook=hook)
    head = _head(x)
    step_layers.clear()
    _assert_same_record(forward(x, LAYOUT, DEEP, weights, head, prune_hook=hook), whole)
    assert step_layers == [2, 3, 4]


def test_prefix_rejects_another_layout():
    layout = dataclasses.replace(LAYOUT, n_system=3, n_text=2)
    head = _head(_inputs(17), layout=layout)
    with pytest.raises(ValidationError, match="prefix layout"):
        forward(_inputs(17), LAYOUT, DEEP, init_weights(DEEP), head)


@pytest.mark.parametrize("change", [{"seed": 6}, {"heads": 4}, {"value_norm": "unit"}])
def test_prefix_rejects_another_config(change):
    x = _inputs(18)
    head = _head(x, cfg=dataclasses.replace(DEEP, **change))
    with pytest.raises(ValidationError, match="prefix config"):
        forward(x, LAYOUT, DEEP, init_weights(DEEP), head)


def test_prefix_rejects_a_deeper_prefix():
    x = _inputs(19)
    head = forward(x, LAYOUT, DEEP, init_weights(DEEP))
    with pytest.raises(ValidationError, match="prefix has 5 layers, model has 3"):
        forward(x, LAYOUT, CFG, init_weights(DEEP), head)


def test_prefix_rejects_pruned_tokens():
    x = _inputs(20)
    head_cfg = dataclasses.replace(DEEP, num_layers=HEAD_DEPTH)
    head = forward(x, LAYOUT, head_cfg, init_weights(DEEP),
                   prune_hook=lambda v: v.survivors[1:] if v.layer == 2 else None)
    with pytest.raises(ValidationError, match="pruned tokens"):
        forward(x, LAYOUT, DEEP, init_weights(DEEP), head)


def test_prefix_rejects_other_inputs():
    x = _inputs(21)
    head = _head(x)
    y = x.copy()
    y[-1, 0] += 1.0
    with pytest.raises(ValidationError, match="other inputs"):
        forward(y, LAYOUT, DEEP, init_weights(DEEP), head)


# ---------------------------------------------------------------------------
# probes


def test_layer_output_distance_on_identical_records():
    rec = forward(_inputs(11), LAYOUT, CFG)
    text_positions = list(range(10, 13))
    assert layer_output_distance(rec, rec, 3, text_positions) == pytest.approx(1.0)
    assert layer_output_distance(rec, rec, 3, text_positions, "euclidean") == 0.0


def test_layer_output_distance_errors():
    rec = forward(_inputs(12), LAYOUT, CFG)
    pruned = forward(
        _inputs(12), LAYOUT, CFG,
        prune_hook=lambda v: v.survivors[:1] if v.layer == 0 else None,
    )
    with pytest.raises(ValidationError, match="not alive"):
        layer_output_distance(rec, pruned, 2, [3])  # pruned image position
    with pytest.raises(ValidationError):
        layer_output_distance(rec, rec, 99, [0])
    with pytest.raises(ValidationError):
        layer_output_distance(rec, rec, 1, [])
    with pytest.raises(ValidationError):
        layer_output_distance(rec, rec, 1, [0], metric="manhattan")


def test_layer_output_distance_names_the_first_missing_position():
    layout = dataclasses.replace(LAYOUT, n_system=0)  # positions 0..10, image 0..7
    x = _inputs(12, layout=layout)
    rec = forward(x, layout, CFG)
    pruned = forward(  # keeps image tokens 1, 2, 5 and 7 after layer 0
        x, layout, CFG, prune_hook=lambda v: [1, 2, 5, 7] if v.layer == 0 else None,
    )
    assert pruned.positions[1].tolist() == [1, 2, 5, 7, 8, 9, 10]
    for wanted, missing in [
        ([5, 0, 9], 0),  # below the first present position
        ([1, 11], 11),  # past the last
        ([10, 6, 3, 1], 6),  # the first in the caller's order, not the smallest
        ([2, 4], 4),  # between two present positions
    ]:
        with pytest.raises(ValidationError, match=rf"^position {missing} not alive at layer 1$"):
            layer_output_distance(rec, pruned, 1, wanted)
    # the rows found are those of the positions asked for, in their order
    wanted = [10, 1, 7]
    rows = [
        r.hidden[2][[r.positions[2].tolist().index(p) for p in wanted]].astype(np.float64)
        for r in (rec, pruned)
    ]
    expected = np.linalg.norm(rows[0] - rows[1], axis=1).mean()
    assert expected > 0.0
    assert layer_output_distance(rec, pruned, 2, wanted, "euclidean") == expected


def test_zero_norm_rows_break_cosine_but_not_euclidean():
    base = forward(_inputs(13), LAYOUT, CFG)
    hidden = tuple(h.copy() for h in base.hidden)
    hidden[1][0] = 0.0
    doctored = ForwardRecord(
        config=base.config, layout=base.layout, hidden=hidden,
        positions=base.positions, attn_last=base.attn_last,
        image_survivors=base.image_survivors,
    )
    with pytest.raises(ValidationError, match="zero-norm"):
        layer_output_distance(doctored, base, 1, [0])
    assert layer_output_distance(doctored, base, 1, [1], "euclidean") == 0.0


def test_local_prune_error_endpoints():
    rec = forward(_inputs(14), LAYOUT, CFG)
    attn, values = _image_rows(rec, 1)
    assert local_prune_error(attn, values, range(LAYOUT.n_image)) == 0.0
    a = attn.astype(np.float64)
    v = values.astype(np.float64)
    expect = np.linalg.norm((a[:, None] * v).sum(axis=0))
    assert local_prune_error(attn, values, []) == pytest.approx(expect)


def test_local_prune_error_monotone_under_nesting():
    # dropping more tokens can change the error either way in general, but
    # dropping a superset that includes strictly positive extra mass cannot
    # help when all dropped contributions are the same sign; just pin the
    # basic sanity: keeping fewer tokens never yields a negative error
    rec = forward(_inputs(15), LAYOUT, CFG)
    attn, values = _image_rows(rec, 2)
    for k in range(attn.size + 1):
        assert local_prune_error(attn, values, range(k)) >= 0.0


def test_local_prune_error_validation():
    attn, values = _image_rows(forward(_inputs(16), LAYOUT, CFG), 1)
    with pytest.raises(ValidationError, match="attn must be"):
        local_prune_error(attn, values[1:], [])
    with pytest.raises(ValidationError, match="attn must be"):
        local_prune_error(attn[:, None], values, [])
    with pytest.raises(ValidationError, match=r"must be in \[0, 8\)"):
        local_prune_error(attn, values, [8])
    with pytest.raises(ValidationError, match=r"must be in \[0, 8\)"):
        local_prune_error(attn, values, [-1])


def test_optimality_check_topk_never_beats_exhaustive():
    attn, values = _image_rows(forward(_inputs(17), LAYOUT, CFG), 1)
    for k in (1, 3, 5):
        err_topk, err_best = single_layer_optimality_check(attn, values, k)
        assert err_topk >= err_best - 1e-12


def test_optimality_check_guards():
    attn, values = _image_rows(forward(_inputs(18), LAYOUT, CFG), 1)
    with pytest.raises(ValidationError, match="capped"):
        single_layer_optimality_check(attn, values, 2, max_image_tokens=4)
    with pytest.raises(ValidationError, match=r"k must be in \[1, 8\], got 0"):
        single_layer_optimality_check(attn, values, 0)
    with pytest.raises(ValidationError, match=r"k must be in \[1, 8\], got 9"):
        single_layer_optimality_check(attn, values, 9)
    with pytest.raises(ValidationError, match="attn must be"):
        single_layer_optimality_check(attn, values.T, 1)
    with pytest.raises(ValidationError, match="no image tokens alive"):
        single_layer_optimality_check(attn[:0], values[:0], 1)
