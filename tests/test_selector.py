"""Staged selection: quota split, nesting, per-layer stage data, and the model hook."""

import json
import math
import re
import weakref

import numpy as np
import pytest

import btp.selector
from btp.diversity import (
    DiversityConfig,
    greedy_maxmin,
    min_pairwise_distance,
    spatial_init,
    sum_of_distances,
)
from btp.errors import ValidationError
from btp.scoring import rebalanced_topk
from btp.selector import (
    ScheduleDriver,
    StageInputs,
    run_schedule,
    run_stage,
    select_stage,
    trace_stage_provider,
)
from btp.trace import (
    ModelShape,
    PruningSchedule,
    PruningStage,
    TensorBlob,
    TokenLayout,
    make_manifest,
)

LAYOUT = TokenLayout(n_system=2, n_image=12, n_text=3, grid_rows=3, grid_cols=4)


def _inputs(seed, survivors=None, layer=1):
    rng = np.random.default_rng(seed)
    if survivors is None:
        survivors = np.arange(LAYOUT.n_image)
    survivors = np.asarray(survivors, dtype=np.int64)
    return StageInputs(
        layer=layer,
        survivors=survivors,
        scores=rng.random(survivors.size) + 1e-3,
        hidden=rng.standard_normal((survivors.size, 6)),
        layout=LAYOUT,
    )


# ---------------------------------------------------------------------------
# StageInputs


def test_stage_inputs_validation():
    good = _inputs(0)
    assert good.survivors.dtype == np.int64
    with pytest.raises(ValidationError):
        StageInputs(1, np.array([], dtype=np.int64), np.array([]), np.zeros((0, 4)), LAYOUT)
    with pytest.raises(ValidationError):
        StageInputs(1, [3, 1], [0.1, 0.2], np.zeros((2, 4)), LAYOUT)
    with pytest.raises(ValidationError):
        StageInputs(1, [2, 2], [0.1, 0.2], np.zeros((2, 4)), LAYOUT)
    with pytest.raises(ValidationError):
        StageInputs(1, [0, 12], [0.1, 0.2], np.zeros((2, 4)), LAYOUT)
    with pytest.raises(ValidationError):
        StageInputs(1, [0, 1], [0.1], np.zeros((2, 4)), LAYOUT)
    with pytest.raises(ValidationError):
        StageInputs(1, [0, 1], [0.1, 0.2], np.zeros((3, 4)), LAYOUT)
    with pytest.raises(ValidationError, match="scores contain non-finite"):
        StageInputs(1, [0, 1], [0.1, np.nan], np.zeros((2, 4)), LAYOUT)
    with pytest.raises(ValidationError, match="scores contain non-finite"):
        StageInputs(1, [0, 1], [np.inf, 0.2], np.zeros((2, 4)), LAYOUT)
    with pytest.raises(ValidationError, match="hidden states contain non-finite"):
        StageInputs(1, [0, 1], [0.1, 0.2], np.array([[0.0, 1.0], [np.nan, 0.0]]), LAYOUT)


def test_grid_positions_follow_original_indices():
    # the skeleton is laid on the full grid: its second cell, the far corner
    # 11, seeds the greedy through its original index, not its survivor rank
    survivors = np.array([1, 3, 4, 6, 8, 10, 11])
    inputs = _inputs(1, survivors=survivors)
    kept = select_stage(inputs, PruningStage(layer=1, retention=0.75, balance=0.0))
    assert spatial_init(LAYOUT.grid_rows, LAYOUT.grid_cols, 2).tolist() == [0, 11]
    sel = greedy_maxmin(inputs.hidden, 5, "cosine_distance", initial=[6])
    np.testing.assert_array_equal(kept, np.sort(survivors[sel]))


# ---------------------------------------------------------------------------
# single stage


def test_budget_and_partition():
    """Kept set = attention picks + disjoint diversity picks, exactly k total."""
    for seed in range(20):
        inputs = _inputs(seed)
        stage = PruningStage(layer=1, retention=0.6, balance=0.5)
        kept = select_stage(inputs, stage)
        n = inputs.survivors.size
        k = int(0.6 * n + 1e-9)
        assert kept.size == k
        assert np.all(np.diff(kept) > 0)
        assert set(kept.tolist()) <= set(inputs.survivors.tolist())
        k_att = min(int(math.floor(0.5 * k + 0.5)), k)
        att = inputs.survivors[rebalanced_topk(inputs.scores, k_att)]
        assert set(att.tolist()) <= set(kept.tolist())


def test_balance_one_is_pure_rebalanced_topk():
    inputs = _inputs(2)
    stage = PruningStage(layer=1, retention=0.5, balance=1.0)
    kept = select_stage(inputs, stage)
    n = inputs.survivors.size
    k = n // 2
    expect = np.sort(inputs.survivors[rebalanced_topk(inputs.scores, k)])
    np.testing.assert_array_equal(kept, expect)


def test_balance_zero_is_pure_diversity():
    inputs = _inputs(3)
    stage = PruningStage(layer=1, retention=0.5, balance=0.0)
    cfg = DiversityConfig()
    kept = select_stage(inputs, stage, cfg)
    k = inputs.survivors.size // 2
    seed_size = -(-k // 4)
    cells = spatial_init(LAYOUT.grid_rows, LAYOUT.grid_cols, seed_size, cfg.spatial_metric)
    pos_of = {int(s): i for i, s in enumerate(inputs.survivors)}
    initial = [pos_of[int(c)] for c in cells if int(c) in pos_of][:k]
    sel = greedy_maxmin(inputs.hidden, k, cfg.semantic_metric, initial=initial)
    np.testing.assert_array_equal(kept, np.sort(inputs.survivors[sel]))


def test_stage_respects_survivor_subset():
    survivors = np.array([1, 3, 4, 7, 8, 10])
    inputs = _inputs(4, survivors=survivors)
    kept = select_stage(inputs, PruningStage(layer=2, retention=0.5, balance=0.5))
    assert set(kept.tolist()) <= set(survivors.tolist())
    assert kept.size == 3


def test_small_budget_clamps_to_one():
    inputs = _inputs(5, survivors=[2, 9])
    kept = select_stage(inputs, PruningStage(layer=1, retention=0.05, balance=1.0))
    assert kept.size == 1


def test_final_stage_may_drop_everything():
    inputs = _inputs(6, survivors=[2, 9])
    stage = PruningStage(layer=3, retention=0.05, balance=1.0)
    kept = select_stage(inputs, stage, final=True)
    assert kept.size == 0 and kept.dtype == np.int64


def test_selection_invariant_under_score_scaling():
    inputs = _inputs(7)
    stage = PruningStage(layer=1, retention=0.4, balance=0.7)
    base = select_stage(inputs, stage)
    scaled = StageInputs(
        inputs.layer, inputs.survivors, inputs.scores * 41.0, inputs.hidden, LAYOUT
    )
    np.testing.assert_array_equal(select_stage(scaled, stage), base)


def test_diagnostics_contents():
    inputs = _inputs(8)
    stage = PruningStage(layer=1, retention=0.5, balance=0.25)
    for metric in ("cosine_distance", "euclidean"):
        sel = run_stage(inputs, stage, DiversityConfig(semantic_metric=metric))
        d = sel.diagnostics
        assert set(d) == {
            "kept_count", "attention_mass", "min_pairwise_distance",
            "sum_of_distances", "objective",
        }
        assert d["kept_count"] == len(sel.kept_indices)
        assert 0.0 <= d["attention_mass"] <= 1.0
        kept = np.asarray(sel.kept_indices)
        kept_score = inputs.scores[kept].sum()
        assert d["objective"] == pytest.approx(
            0.25 * kept_score + 0.75 * d["sum_of_distances"]
        )
        # survivors are 0..n-1 here, so original and local indices coincide
        assert d["min_pairwise_distance"] == min_pairwise_distance(inputs.hidden, kept, metric)
        assert d["sum_of_distances"] == sum_of_distances(inputs.hidden, kept, metric)


# ---------------------------------------------------------------------------
# schedules over per-layer arrays


def _arrays(seed, layers=(1, 3, 5)):
    """Per-layer score vectors and hidden matrices for ``run_schedule``."""
    rng = np.random.default_rng(seed)
    scores = {l: rng.random(LAYOUT.n_image) + 1e-3 for l in layers}
    hidden = {l: rng.standard_normal((LAYOUT.n_image, 6)) for l in layers}
    return scores, hidden


def _schedule():
    return PruningSchedule(
        stages=(
            PruningStage(1, 0.6, 0.4),
            PruningStage(3, 0.5, 0.7),
            PruningStage(5, 0.5, 1.0),
        ),
        num_layers=8,
    )


def test_run_schedule_produces_nested_stages():
    result = run_schedule(LAYOUT, *_arrays(9), _schedule())
    sets = [set(s.kept_indices) for s in result.per_stage]
    assert len(sets) == 3
    assert [len(s) for s in sets] == [7, 3, 1]
    assert sets[2] < sets[1] < sets[0]


def test_run_schedule_deterministic():
    a = run_schedule(LAYOUT, *_arrays(10), _schedule())
    b = run_schedule(LAYOUT, *_arrays(10), _schedule())
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_run_schedule_drop_all_final_stage():
    sched = PruningSchedule(
        stages=(PruningStage(1, 0.5, 0.5), PruningStage(3, 0.05, 1.0)),
        num_layers=8,
    )
    result = run_schedule(LAYOUT, *_arrays(11), sched)
    assert result.per_stage[-1].kept_indices == ()
    assert len(result.per_stage[0].kept_indices) == 6


def test_run_schedule_validates_each_stage_layer():
    rng = np.random.default_rng(12)
    one_stage = PruningSchedule((PruningStage(1, 0.5, 0.5),), num_layers=8)
    good_scores, good_hidden = rng.random(12), rng.standard_normal((12, 4))
    # too short would index past the end, too long would be read in part
    for n in (5, 20):
        with pytest.raises(ValidationError, match=re.escape(f"layer 1: score vector shape ({n},)")):
            run_schedule(LAYOUT, {1: rng.random(n)}, {1: good_hidden}, one_stage)
    for bad in (rng.standard_normal((5, 4)), rng.standard_normal((20, 4)), rng.random(12)):
        with pytest.raises(ValidationError, match=re.escape(f"layer 1: hidden shape {bad.shape}")):
            run_schedule(LAYOUT, {1: good_scores}, {1: bad}, one_stage)
    scores, hidden = _arrays(13, layers=(1,))
    more_scores, more_hidden = _arrays(14, layers=(1, 2))
    two_stages = PruningSchedule((PruningStage(1, 0.5, 0.5), PruningStage(2, 0.5, 0.5)), 8)
    # layer 2 missing from both mappings, from the scores only, from the hidden only
    for data in ((scores, hidden), (scores, more_hidden), (more_scores, hidden)):
        with pytest.raises(ValidationError, match="no stage data recorded for scheduled layer 2"):
            run_schedule(LAYOUT, *data, two_stages)
    # only the schedule's layers are read
    wrong = {7: rng.random(3)}
    assert run_schedule(LAYOUT, scores | wrong, hidden | wrong, one_stage) == run_schedule(
        LAYOUT, scores, hidden, one_stage
    )


@pytest.mark.parametrize("side,d,stages", [
    (24, 64, [(1, 0.5, 0.5), (3, 0.5, 1.0)]),
    (24, 8, [(1, 0.8, 0.0)]),
    (48, 16, [(1, 0.25, 0.3)]),
])
@pytest.mark.parametrize("metric", ["cosine_distance", "euclidean"])
def test_stage_peak_bytes_tracks_the_measured_peak(side, d, stages, metric):
    # numpy reports its allocations to tracemalloc: the estimate, made from
    # the schedule and the widths alone, lies within 15% of what the stages
    # allocated at their peak
    import tracemalloc

    layout = TokenLayout(n_system=1, n_image=side * side, n_text=2,
                         grid_rows=side, grid_cols=side)
    sched = PruningSchedule(tuple(PruningStage(*stage) for stage in stages), num_layers=4)
    rng = np.random.default_rng(side + d)
    scores = {layer: rng.random(layout.n_image) for layer, _, _ in stages}
    hidden = {layer: rng.standard_normal((layout.n_image, d)).astype(np.float32)
              for layer, _, _ in stages}
    tracemalloc.start()
    try:
        run_schedule(layout, scores, hidden, sched, DiversityConfig(semantic_metric=metric))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = btp.selector.stage_peak_bytes(sched, layout.n_image, dict.fromkeys(hidden, d),
                                             metric)
    assert 0.85 * peak < estimate < 1.15 * peak


def test_stage_peak_bytes_counts_each_stage_at_its_survivor_count():
    # 100 candidates at the first stage, 50 survivors at the second
    sched = PruningSchedule((PruningStage(1, 0.5, 0.0), PruningStage(2, 0.5, 0.0)), 4)
    first = 4 * 100 * 3 + 8 * 100 * (100 + 2 * 3)
    assert btp.selector.stage_peak_bytes(sched, 100, {1: 3}, "cosine_distance") == first
    second = 4 * 50 * 1000 + 8 * 50 * (50 + 2 * 1000)
    assert btp.selector.stage_peak_bytes(sched, 100, {1: 3, 2: 1000},
                                         "cosine_distance") == second


def test_trace_provider_parses_tensor_names():
    rng = np.random.default_rng(14)
    row = rng.random(LAYOUT.total()) + 1e-3
    row /= row.sum()
    full_hidden = rng.standard_normal((LAYOUT.total(), 5)).astype(np.float32)
    image_hidden = rng.standard_normal((LAYOUT.n_image, 5)).astype(np.float32)
    blobs = {
        "attn_l1": TensorBlob.from_array("attn_l1", row),
        "hidden_l1": TensorBlob.from_array("hidden_l1", full_hidden),
        "attn_l3": TensorBlob.from_array("attn_l3", row),
        "hidden_l3": TensorBlob.from_array("hidden_l3", image_hidden),
    }
    manifest = make_manifest(LAYOUT, ModelShape(layers=8, d=5, heads=1, m=10), blobs)
    scores, hidden = trace_stage_provider(manifest, blobs, [1, 3])
    assert sorted(scores) == sorted(hidden) == [1, 3]
    assert scores[1].dtype == np.float64
    np.testing.assert_allclose(scores[1], row[LAYOUT.image_slice])
    np.testing.assert_allclose(hidden[1], full_hidden[LAYOUT.image_slice])
    np.testing.assert_allclose(hidden[3], image_hidden)


def test_trace_provider_rejects_bad_tensors():
    rng = np.random.default_rng(15)
    row = np.full(LAYOUT.total(), 1.0 / LAYOUT.total())
    # one spelling per layer: no sign, no leading zero, ASCII digits only
    for name in ("attn_lX", "attn_l", "attn_l01", "attn_l+1", "attn_l-1", "attn_l 1",
                 "attn_l1_0", "attn_l\u0661", "attn_l" + "1" * 5000):
        bad_name = {"attn_l1": TensorBlob.from_array("attn_l1", row),
                    name: TensorBlob.from_array(name, row)}
        with pytest.raises(ValidationError, match=re.escape(f"name {name!r} is not attn_l<")):
            trace_stage_provider(
                make_manifest(LAYOUT, ModelShape(8, 4, 1, 8), bad_name), bad_name, [1]
            )
    wrong_rows = {
        "hidden_l1": TensorBlob.from_array("hidden_l1", rng.standard_normal((7, 4)))
    }
    with pytest.raises(ValidationError):
        trace_stage_provider(
            make_manifest(LAYOUT, ModelShape(8, 4, 1, 8), wrong_rows), wrong_rows, [1]
        )


def test_trace_provider_checks_shapes_now_and_values_when_used():
    row = np.full(LAYOUT.total(), 1.0 / LAYOUT.total())
    hidden = np.ones((LAYOUT.n_image, 4))
    dims = ModelShape(8, 4, 1, 8)
    short = {"attn_l1": TensorBlob.from_array("attn_l1", row),
             "attn_l5": TensorBlob.from_array("attn_l5", row[:-1])}
    # shapes are checked at every layer, scheduled or not
    with pytest.raises(ValidationError, match="row length 16 != sequence length 17"):
        trace_stage_provider(make_manifest(LAYOUT, dims, short), short, [1])
    cube = {"attn_l5": TensorBlob.from_array("attn_l5", np.ones((1, 1, LAYOUT.total())))}
    with pytest.raises(ValidationError, match=re.escape("got (1, 1, 17)")):
        trace_stage_provider(make_manifest(LAYOUT, dims, cube), cube, [1])
    # a negative entry is a value: found when a scheduled layer is scored,
    # which is before any stage runs; an unscheduled layer is never read
    blobs = {
        "attn_l1": TensorBlob.from_array("attn_l1", row),
        "hidden_l1": TensorBlob.from_array("hidden_l1", hidden),
        "attn_l5": TensorBlob.from_array("attn_l5", -row),
        "hidden_l5": TensorBlob.from_array("hidden_l5", hidden),
    }
    manifest = make_manifest(LAYOUT, dims, blobs)
    with pytest.raises(ValidationError, match="negative entries"):
        trace_stage_provider(manifest, blobs, [1, 5])
    scores, hidden = trace_stage_provider(manifest, blobs, [1])
    assert list(scores) == [1] and scores[1].size == 12
    sched = PruningSchedule((PruningStage(1, 0.5, 0.5), PruningStage(5, 0.5, 0.5)), 8)
    with pytest.raises(ValidationError, match="no stage data recorded for scheduled layer 5"):
        run_schedule(LAYOUT, scores, hidden, sched)


# ---------------------------------------------------------------------------
# driver hook


def test_run_schedule_releases_each_stage_inputs(monkeypatch):
    # each stage's inputs hold their own copy of the survivors' hidden rows
    # (gathered from a trace's payload at that stage): run_schedule must drop
    # one stage's inputs before it gathers the next stage's, or it would hold
    # every stage's rows at once
    scores, hidden = _arrays(17)
    expect = run_schedule(LAYOUT, scores, hidden, _schedule())
    handed_out = []

    def all_released():
        return [ref() for ref in handed_out] == [None] * len(handed_out)

    def watching_run_stage(inputs, *args, **kwargs):
        assert all_released()
        handed_out.append(weakref.ref(inputs))
        return run_stage(inputs, *args, **kwargs)

    class Watching(dict):
        # a stage layer's rows are read before they are gathered
        def __getitem__(self, layer):
            assert all_released()
            return super().__getitem__(layer)

    monkeypatch.setattr(btp.selector, "run_stage", watching_run_stage)
    assert run_schedule(LAYOUT, Watching(scores), Watching(hidden), _schedule()) == expect
    assert len(handed_out) == 3


def test_driver_skips_unscheduled_layers():
    driver = ScheduleDriver(_schedule())
    assert driver(_inputs(16, layer=0)) is None
    assert driver(_inputs(16, layer=2)) is None
    kept = driver(_inputs(16, layer=1))
    assert kept is not None and kept.size == 7


def test_driver_matches_run_schedule():
    scores, hidden = _arrays(17)
    sched = _schedule()
    expect = run_schedule(LAYOUT, scores, hidden, sched)
    driver = ScheduleDriver(sched)
    survivors = np.arange(LAYOUT.n_image)
    got = []
    for layer in range(8):
        if layer in {1, 3, 5}:
            survivors = driver(StageInputs(
                layer, survivors, scores[layer][survivors], hidden[layer][survivors], LAYOUT
            ))
            got.append((layer, tuple(survivors.tolist())))
    assert got == [(s.layer, s.kept_indices) for s in expect.per_stage]
