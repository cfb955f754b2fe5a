"""Binding acceptance checks, one test per numbered criterion.

Each test is self-contained and pins the tolerance it enforces.  Criterion 2
includes the grid-exactness clause as stated even though the seeded greedy
skeleton provably misses the exhaustive optimum on several k=3 grids, so
that clause is expected to fail; see the oracle regression list for the
exact instances.
"""

import json
import math

import numpy as np
import pytest

from btp.calibration import (
    aggregate_profiles,
    build_schedule,
    select_pruning_layers,
    shift_profile,
    synthetic_shift_stack,
)
from btp.costs import ModelDims, layer_flops
from btp.diversity import DiversityConfig, greedy_maxmin, spatial_init
from btp.oracles import (
    mmdp_suite,
    roundtrip_suite,
    single_layer_suite,
    spatial_grid_exactness,
    unequal_norm_counterexample,
)
from btp.scoring import rebalanced_topk
from btp.selector import (
    ScheduleDriver,
    StageInputs,
    run_schedule,
    select_stage,
)
from btp.toymodel import (
    ToyConfig,
    forward,
    init_weights,
    layer_output_distance,
    local_prune_error,
    single_layer_optimality_check,
    value_rows,
)
from btp.trace import PruningSchedule, PruningStage, TokenLayout


def test_criterion_1_cost_model_anchors():
    """Layer FLOPs x depth lands within 0.5% of the published totals."""
    got_7b = 32 * layer_flops(576, ModelDims(num_layers=32, d=4096, m=11008))
    assert abs(got_7b / 3.82e12 - 1.0) < 0.005
    got_13b = 40 * layer_flops(576, ModelDims(num_layers=40, d=5120, m=13824))
    assert abs(got_13b / 7.44e12 - 1.0) < 0.005


def test_criterion_2_mmdp_oracles():
    """Greedy within half of optimum on 50 instances; grid skeleton exact.

    The second clause fails by construction: seeded greedy takes the two
    opposite corners first, which caps the third pick at half the optimum
    on 2x3, 3x2, 3x4, 4x3, and 4x4 grids at k=3.
    """
    report = mmdp_suite(instances=50, max_n=12, max_k=5)
    assert report.ok, report.failures
    misses = spatial_grid_exactness(max_rows=4, max_cols=4, max_k=4)
    assert misses == [], f"grid skeleton missed the optimum on: {misses}"


def test_criterion_3_single_layer_optimality():
    """Equal-norm values: top-k matches the exhaustive optimum (gap < 1e-6)."""
    report = single_layer_suite(instances=20, max_n=10)
    assert report.ok, report.failures
    attn, values, k = unequal_norm_counterexample()
    err_topk, err_best = single_layer_optimality_check(attn, values, k)
    assert err_topk > err_best  # unequal norms must break the premise


LAYOUT_4 = TokenLayout(n_system=2, n_image=16, n_text=5, grid_rows=4, grid_cols=4)
CFG_4 = dict(num_layers=5, d=32, heads=4, mlp=64)


def _ref_layernorm(x):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + 1e-5)


def _ref_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def _ref_encoding(positions, d):
    idx = np.arange(d)
    rates = 1.0 / np.power(10000.0, (idx // 2) * 2.0 / d)
    angles = positions[:, None].astype(np.float64) * rates
    return np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))


def _ref_layer(x, layer, heads, w):
    seq, d = x.shape
    hd = d // heads
    normed = _ref_layernorm(x)
    q = (normed @ w.wq[layer].astype(np.float64)).reshape(seq, heads, hd)
    k = (normed @ w.wk[layer].astype(np.float64)).reshape(seq, heads, hd)
    v = (normed @ w.wv[layer].astype(np.float64)).reshape(seq, heads, hd)
    logits = np.einsum("qhc,khc->hqk", q, k) / math.sqrt(hd)
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    logits = np.where(mask[None], -np.inf, logits)
    logits = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(logits)
    probs = expd / expd.sum(axis=-1, keepdims=True)
    ctx = np.einsum("hqk,khc->qhc", probs, v).reshape(seq, d)
    attn_out = ctx @ w.wo[layer].astype(np.float64)
    mid = attn_out + x
    mlp = _ref_gelu(_ref_layernorm(mid) @ w.w1[layer].astype(np.float64))
    return x + attn_out + mlp @ w.w2[layer].astype(np.float64)


def _ref_forward(inputs, layout, cfg, weights, kept_by_layer):
    """Float64 replay that removes the given rows after each scheduled layer."""
    positions = np.arange(layout.total())
    x = inputs.astype(np.float64) + _ref_encoding(positions, cfg.d)
    alive = np.arange(layout.n_image)
    for layer in range(cfg.num_layers):
        x = _ref_layer(x, layer, cfg.heads, weights)
        if layer in kept_by_layer:
            kept = np.asarray(kept_by_layer[layer])
            image_mask = (positions >= layout.n_system) & (
                positions < layout.n_system + layout.n_image
            )
            keep_mask = np.ones(x.shape[0], dtype=bool)
            keep_mask[image_mask] = np.isin(alive, kept)
            x = x[keep_mask]
            positions = positions[keep_mask]
            alive = kept
    return x


def test_criterion_4_identity_and_elimination():
    """Retention-1.0 is bitwise invisible; drop-all matches a reduced replay."""
    identity = PruningSchedule(
        stages=(PruningStage(1, 1.0, 0.5), PruningStage(3, 1.0, 1.0)), num_layers=5
    )
    for seed in range(5):
        cfg = ToyConfig(seed=seed, **CFG_4)
        rng = np.random.default_rng([seed, 1])
        x = rng.standard_normal((LAYOUT_4.total(), cfg.d)).astype(np.float32)
        base = forward(x, LAYOUT_4, cfg)
        hooked = forward(x, LAYOUT_4, cfg, prune_hook=ScheduleDriver(identity))
        for ha, hb in zip(base.hidden, hooked.hidden):
            assert ha.dtype == hb.dtype and ha.tobytes() == hb.tobytes()

    drop_all = PruningSchedule(
        stages=(PruningStage(1, 0.5, 0.8), PruningStage(3, 0.05, 1.0)), num_layers=5
    )
    for seed in range(10):
        cfg = ToyConfig(seed=seed, **CFG_4)
        weights = init_weights(cfg)
        rng = np.random.default_rng([seed, 1])
        x = rng.standard_normal((LAYOUT_4.total(), cfg.d)).astype(np.float32)
        record = forward(x, LAYOUT_4, cfg, weights=weights, prune_hook=ScheduleDriver(drop_all))
        assert record.image_survivors[-1].size == 0
        assert record.hidden[-1].shape[0] == LAYOUT_4.n_system + LAYOUT_4.n_text

        kept_by_layer = {s.layer: record.image_survivors[s.layer + 1] for s in drop_all.stages}
        ref = _ref_forward(x, LAYOUT_4, cfg, weights, kept_by_layer)
        np.testing.assert_allclose(record.hidden[-1], ref, rtol=1e-6, atol=1e-6)


LAYOUT_5 = TokenLayout(n_system=2, n_image=12, n_text=3, grid_rows=3, grid_cols=4)


def _stage_inputs(seed):
    rng = np.random.default_rng([5000, seed])
    return StageInputs(
        layer=1,
        survivors=np.arange(LAYOUT_5.n_image),
        scores=rng.random(LAYOUT_5.n_image) + 1e-3,
        hidden=rng.standard_normal((LAYOUT_5.n_image, 8)),
        layout=LAYOUT_5,
    )


def test_criterion_5_degeneracy_equivalences():
    """Balance endpoints reduce to the single-route pipelines; k'=k is top-k."""
    cfg = DiversityConfig()
    for seed in range(50):
        inputs = _stage_inputs(seed)
        n = inputs.survivors.size
        k = n // 2

        kept_att = select_stage(inputs, PruningStage(1, 0.5, 1.0))
        expect_att = np.sort(inputs.survivors[rebalanced_topk(inputs.scores, k)])
        np.testing.assert_array_equal(kept_att, expect_att)

        kept_div = select_stage(inputs, PruningStage(1, 0.5, 0.0), cfg)
        seed_size = -(-k // 4)
        cells = spatial_init(
            LAYOUT_5.grid_rows, LAYOUT_5.grid_cols, seed_size, cfg.spatial_metric
        )
        pos_of = {int(s): i for i, s in enumerate(inputs.survivors)}
        initial = [pos_of[int(c)] for c in cells if int(c) in pos_of][:k]
        sel = greedy_maxmin(inputs.hidden, k, cfg.semantic_metric, initial=initial)
        np.testing.assert_array_equal(kept_div, np.sort(inputs.survivors[sel]))

    for i in range(200):
        rng = np.random.default_rng([5100, i])
        n = int(rng.integers(4, 41))
        k = int(rng.integers(1, n + 1))
        scores = rng.random(n) if i % 2 == 0 else rng.integers(0, 6, size=n) / 5.0
        got = rebalanced_topk(scores, k, k_prime=k)
        plain = np.lexsort((np.arange(n), -scores))[:k]
        assert set(got.tolist()) == set(plain.tolist())


def test_criterion_6_nesting_and_determinism():
    """100 seeded schedule runs: strictly nested stages, byte-identical reruns."""
    layout = TokenLayout(n_system=1, n_image=36, n_text=4, grid_rows=6, grid_cols=6)
    schedule = PruningSchedule(
        stages=(
            PruningStage(1, 0.6, 0.4),
            PruningStage(3, 0.5, 0.7),
            PruningStage(5, 0.5, 1.0),
        ),
        num_layers=8,
    )
    for seed in range(100):
        rng = np.random.default_rng([6000, seed])
        scores = {l: rng.random(layout.n_image) + 1e-3 for l in (1, 3, 5)}
        hidden = {l: rng.standard_normal((layout.n_image, 10)) for l in (1, 3, 5)}
        first = run_schedule(layout, scores, hidden, schedule)
        second = run_schedule(layout, scores, hidden, schedule)
        sets = [set(s.kept_indices) for s in first.per_stage]
        assert sets[2] < sets[1] < sets[0] < set(range(layout.n_image))
        assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())


def test_criterion_7_calibration_recovery():
    """Planted shift peaks are recovered as peak+1 with a stable two-half split."""
    num_layers, n_image, d = 32, 16, 12
    planted = {9: 12, 17: 8, 24: 10}  # dominant layer-9 peak
    for seed in range(20):
        profiles = [
            shift_profile(
                synthetic_shift_stack(
                    np.random.default_rng([7000 + seed, t]),
                    num_layers=num_layers, n_image=n_image, d=d, shifted=planted,
                )
            )
            for t in range(8)
        ]
        selection = select_pruning_layers(aggregate_profiles(profiles), num_stages=3)
        assert selection.layers == (10, 18, 25)
        assert not selection.fallback

        halves = []
        for chunk in (profiles[:4], profiles[4:]):
            sel = select_pruning_layers(aggregate_profiles(chunk), num_stages=3)
            halves.append(
                build_schedule(sel.layers, [0.5] * 3, [0.6, 0.8, 1.0], num_layers)
            )
        assert halves[0] == halves[1]
        assert halves[0].stages[0].layer == 10


def test_criterion_8_first_stage_divergence():
    """Attention-led pruning wins at its own layer on >= 90% of 100 seeds."""
    layout = TokenLayout(n_system=2, n_image=36, n_text=6, grid_rows=6, grid_cols=6)
    wins = 0
    for seed in range(100):
        cfg = ToyConfig(num_layers=4, d=64, heads=4, mlp=128, seed=seed, value_norm="unit")
        rng = np.random.default_rng([seed, 1])
        x = rng.standard_normal((layout.total(), cfg.d)).astype(np.float32)
        weights = init_weights(cfg)
        rec = forward(x, layout, cfg, weights)
        image_mask = (rec.positions[1] >= 2) & (rec.positions[1] < 38)
        attn = rec.attn_last[1][image_mask]
        values = value_rows(rec.hidden[1], 1, cfg, weights)[image_mask]
        inputs = StageInputs(
            layer=1,
            survivors=np.arange(layout.n_image),
            scores=rec.attn_last[1][image_mask],
            hidden=rec.hidden[1][image_mask],
            layout=layout,
        )
        # attention-led: a plain top-k (pool k' = k) of the stage's budget
        k = inputs.survivors.size // 2
        kept_att = np.sort(rebalanced_topk(inputs.scores, k, k_prime=k))
        kept_div = select_stage(inputs, PruningStage(1, 0.5, 0.0))
        if local_prune_error(attn, values, kept_att) <= local_prune_error(attn, values, kept_div):
            wins += 1
    assert wins >= 90, f"attention-led pruning won only {wins}/100 at the pruning layer"


def test_criterion_9_trace_roundtrip(tmp_path):
    """100 seeded trace directories survive write -> read bit-exactly."""
    report = roundtrip_suite(instances=100, base_dir=tmp_path)
    assert report.ok, report.failures


def test_criterion_10_diversity_serves_later_layers():
    """Diversity-only beats attention-only at the last layer on >= 80 of 100 seeds.

    The error is 1 - cosine similarity of the text rows against the
    unpruned run, under both value norms, on ``simulate``'s input draw.
    """
    layout = TokenLayout(n_system=2, n_image=36, n_text=6, grid_rows=6, grid_cols=6)
    text = range(layout.n_system + layout.n_image, layout.total())
    one_sided = {
        balance: PruningSchedule(
            stages=tuple(PruningStage(layer, 0.5, balance) for layer in (1, 3, 5)), num_layers=8
        )
        for balance in (0.0, 1.0)
    }
    for value_norm in ("raw", "unit"):
        wins = 0
        for seed in range(100):
            cfg = ToyConfig(num_layers=8, d=64, heads=4, mlp=128, seed=seed,
                            value_norm=value_norm)
            rng = np.random.default_rng([seed, 1])
            x = rng.standard_normal((layout.total(), cfg.d)).astype(np.float32)
            weights = init_weights(cfg)
            base = forward(x, layout, cfg, weights)
            error = {
                balance: 1.0 - layer_output_distance(
                    base,
                    forward(x, layout, cfg, weights, prune_hook=ScheduleDriver(schedule)),
                    cfg.num_layers,
                    text,
                )
                for balance, schedule in one_sided.items()
            }
            wins += error[0.0] < error[1.0]
        assert wins >= 80, f"{value_norm}: diversity-only won only {wins}/100 at the last layer"
