"""Shift profiling, pruning-layer selection, and the synthetic stack builder."""

import concurrent.futures
import re
import sys
import tracemalloc

import numpy as np
import pytest

from btp.calibration import (
    LayerSelection,
    ShiftProfile,
    aggregate_profiles,
    build_schedule,
    select_pruning_layers,
    shift_profile,
    synthetic_shift_stack,
)
from btp.errors import ValidationError
from btp.trace import (
    ModelShape,
    PruningSchedule,
    PruningStage,
    TensorBlob,
    TokenLayout,
    make_manifest,
    read_trace,
    write_trace,
)


def _profile(counts):
    return ShiftProfile(tuple(int(c) for c in counts))


# ---------------------------------------------------------------------------
# profiles


def test_profile_validation():
    with pytest.raises(ValidationError, match="empty"):
        ShiftProfile(counts=())
    with pytest.raises(ValidationError, match="non-negative"):
        ShiftProfile(counts=(2, -1))
    prof = _profile([3, 0, 5])
    np.testing.assert_array_equal(prof.counts, [3, 0, 5])
    assert prof.num_layers == 3


def test_shift_profile_hand_case():
    c45 = np.sqrt(0.5)
    stack = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [c45, c45]],   # token 1 rotates 45 degrees: cos 0.707 < tau
        [[1.0, 0.0], [c45, c45]],
    ])
    prof = shift_profile(stack, tau=0.93)
    np.testing.assert_array_equal(prof.counts, [1, 0])


def test_shift_profile_threshold_is_strict():
    c45 = np.sqrt(0.5)
    stack = np.array([
        [[1.0, 0.0]],
        [[c45, c45]],
        [[c45, c45]],
    ])
    assert shift_profile(stack, tau=0.7072).counts[0] == 1
    assert shift_profile(stack, tau=0.707).counts[0] == 0


def test_shift_profile_input_validation():
    stack = np.ones((3, 2, 2))
    with pytest.raises(ValidationError):
        shift_profile(stack, tau=1.0)
    with pytest.raises(ValidationError):
        shift_profile(stack, tau=0.0)
    with pytest.raises(ValidationError):
        shift_profile(np.ones((2, 2)))
    with pytest.raises(ValidationError):
        shift_profile(np.ones((2, 2, 2)))  # only one transition
    bad = stack.copy()
    bad[1, 0] = 0.0
    with pytest.raises(ValidationError, match="snapshot 1, image token 0"):
        shift_profile(bad)


def test_shift_profile_scale_invariant():
    """Cosine shifts ignore per-token magnitude, so rescaling rows is a no-op."""
    rng = np.random.default_rng(20)
    stack = synthetic_shift_stack(rng, num_layers=6, n_image=10, d=8, shifted={2: 7})
    scaled = stack * rng.uniform(0.1, 10.0, size=stack.shape[:2])[:, :, None].astype(np.float32)
    assert shift_profile(stack).counts == shift_profile(scaled).counts


def _dense_cosines(stack):
    """Consecutive-snapshot cosines [L, N] the way ``shift_profile`` used to
    compute them, from one [L+1, N, d] float64 copy: the test oracle, whose
    counts the streamed computation must match bit for bit."""
    stack = np.asarray(stack).astype(np.float64)
    norms = np.linalg.norm(stack, axis=2)
    assert not (norms == 0).any()
    return np.stack([
        (stack[l] * stack[l + 1]).sum(axis=1) / (norms[l] * norms[l + 1])
        for l in range(stack.shape[0] - 1)
    ])


def _dense_shift_counts(stack, tau):
    return np.count_nonzero(_dense_cosines(stack) < tau, axis=1)


def _assert_counts_match_dense(given, stack, workers=1):
    """Counts at tau 0.93 and at taus equal to computed cosines, where a
    single rounding difference flips a token."""
    cos = _dense_cosines(stack)
    inside = np.sort(cos[(cos > 0) & (cos < 1)])
    taus = [0.93] + list(inside[:: max(1, inside.size // 7)])
    assert len(taus) > 1
    for tau in taus:
        np.testing.assert_array_equal(
            shift_profile(given, tau=tau, workers=workers).counts,
            _dense_shift_counts(stack, tau),
        )


def _random_stacks():
    for i, (n, d) in enumerate([(1, 3), (3, 2), (50, 17), (300, 257), (64, 4096)]):
        rng = np.random.default_rng([41, i])
        # a random walk keeps consecutive cosines spread over (0, 1)
        yield np.cumsum(rng.standard_normal((5, n, d)), axis=0).astype(np.float32)
    yield synthetic_shift_stack(
        np.random.default_rng(42), num_layers=6, n_image=64, d=33, shifted={1: 32, 4: 64},
        tau=0.93, stable_cos=0.93 + 1e-7, shift_cos=0.93 - 1e-7,
    )


def test_shift_profile_matches_dense_reference():
    for stack in _random_stacks():
        for given in (stack, list(stack)):
            _assert_counts_match_dense(given, stack)
        if stack.size < 10**5:
            _assert_counts_match_dense([snap.tolist() for snap in stack], stack)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_shift_profile_does_not_depend_on_workers(workers):
    # the stacks hold n = 1 (fewer rows than workers), 300 rows of width
    # 257 (blocks of 127 rows, the last one short) and 64 rows of width
    # 4096 (8 blocks of 8 rows)
    for stack in _random_stacks():
        _assert_counts_match_dense(stack, stack, workers=workers)


@pytest.mark.parametrize("zeros", [
    [(2, 3)],             # first worker's range only
    [(1, 63)],            # last worker's range only
    [(3, 5), (2, 60)],    # both: the earlier snapshot is named
    [(2, 7), (2, 56)],    # both, one snapshot: the earlier token is named
])
def test_shift_profile_zero_norm_error_does_not_depend_on_workers(zeros):
    stack = np.random.default_rng(45).standard_normal((5, 64, 4096), dtype=np.float32)
    for snap, tok in zeros:
        stack[snap, tok] = 0.0
    with pytest.raises(ValidationError) as serial:
        shift_profile(stack)
    for workers in (2, 3, 5):
        with pytest.raises(ValidationError) as split:
            shift_profile(stack, workers=workers)
        assert str(split.value) == str(serial.value)


class InlinePool:
    """Stands in for ``ThreadPoolExecutor``: appends ``max_workers`` to
    ``created`` and runs each job when it is submitted, so no thread starts."""

    def __init__(self, max_workers, created):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        job = concurrent.futures.Future()
        try:
            job.set_result(fn(*args, **kwargs))
        except Exception as exc:
            job.set_exception(exc)
        return job


def test_shift_profile_starts_no_more_threads_than_row_blocks(monkeypatch):
    created = []  # max_workers of each pool
    monkeypatch.setattr(
        concurrent.futures, "ThreadPoolExecutor",
        lambda max_workers: InlinePool(max_workers, created),
    )
    stack = list(_random_stacks())[4]  # 64 rows of width 4096: 8 blocks
    serial = shift_profile(stack)
    assert created == []
    assert shift_profile(stack, workers=100000) == serial
    assert shift_profile(stack, workers=3) == serial
    assert created == [8, 3]
    shift_profile(list(_random_stacks())[0], workers=100000)  # one row, one block
    assert created == [8, 3]
    with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
        shift_profile(stack, workers=0)


def test_shift_profile_workers_switching_every_microsecond():
    # more threads than cores, each writing its own rows of the shared
    # sums: a row written by two threads or by none changes the counts
    stack = np.cumsum(
        np.random.default_rng(46).standard_normal((9, 200, 1024), dtype=np.float32), axis=0
    )
    serial = shift_profile(stack)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert shift_profile(stack, workers=7) == serial
    finally:
        sys.setswitchinterval(interval)


def test_shift_profile_reads_memory_mapped_trace_views(tmp_path):
    stack = list(_random_stacks())[2]  # 5 snapshots of [50, 17]
    layout = TokenLayout(n_system=1, n_image=50, n_text=2, grid_rows=5, grid_cols=10)
    full = np.random.default_rng(43).standard_normal((len(stack), layout.total(), 17))
    full[:, layout.image_slice] = stack
    blobs = {f"hidden_l{i}": TensorBlob.from_array(f"hidden_l{i}", m) for i, m in enumerate(full)}
    write_trace(tmp_path / "t", make_manifest(layout, ModelShape(4, 17, 1, 4), blobs), blobs)
    _, tensors = read_trace(tmp_path / "t")
    views = [
        layout.image_rows(tensors[f"hidden_l{i}"].view(), "h") for i in range(len(stack))
    ]
    assert all(isinstance(v, np.memmap) and not v.flags.writeable for v in views)
    _assert_counts_match_dense(views, stack)


def test_shift_profile_errors_keep_their_order():
    ones = np.ones((3, 2, 2))
    cases = [
        (np.ones((2, 2)), "hidden stack must be [L+1, N, d], got shape (2, 2)"),
        ([np.ones(2)] * 3, "hidden stack must be [L+1, N, d], got snapshot 0 of shape (2,)"),
        # a 2-snapshot list whose shapes differ is short first
        ([np.ones((2, 2)), np.ones((3, 2))],
         "hidden stack needs at least 3 snapshots (2 layers), got 2"),
        ([np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3))],
         "hidden snapshot 2 has shape (2, 3), snapshot 0 has (2, 2)"),
    ]
    zero_late = ones.copy()
    zero_late[2, 1] = 0.0
    zero_late[1, 1, 0] = 0.0  # a zero element alone is no zero norm
    cases.append((zero_late, "zero-norm hidden state at snapshot 2, image token 1"))
    for given, message in cases:
        with pytest.raises(ValidationError, match=re.escape(message)):
            shift_profile(given)
    with pytest.raises(ValidationError, match="snapshot 0, image token 0"):
        shift_profile(np.ones((3, 2, 0)))  # width 0: every norm is zero
    assert shift_profile(np.ones((3, 0, 4))).counts == (0, 0)  # no tokens


def test_shift_profile_memory_is_below_one_snapshot():
    # 33 snapshots of 512 x 1024: the stacked float64 copy would be 138 MB,
    # one float64 snapshot is 4 MiB
    n, d = 512, 1024
    stack = np.random.default_rng(44).standard_normal((33, n, d), dtype=np.float32)
    snapshot_bytes = n * d * 8
    tracemalloc.start()
    try:
        shift_profile(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < snapshot_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_synthetic_stack_plants_exact_counts():
    rng = np.random.default_rng(21)
    stack = synthetic_shift_stack(rng, num_layers=8, n_image=12, d=16, shifted={1: 5, 6: 9})
    assert stack.shape == (9, 12, 16)
    np.testing.assert_allclose(np.linalg.norm(stack, axis=2), 1.0, atol=1e-6)
    np.testing.assert_array_equal(shift_profile(stack).counts, [0, 5, 0, 0, 0, 0, 9, 0])


def test_synthetic_stack_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(ValidationError):
        synthetic_shift_stack(rng, 4, 6, 1, {})
    with pytest.raises(ValidationError):
        synthetic_shift_stack(rng, 4, 6, 8, {4: 1})
    with pytest.raises(ValidationError):
        synthetic_shift_stack(rng, 4, 6, 8, {0: 7})
    with pytest.raises(ValidationError):
        synthetic_shift_stack(rng, 4, 6, 8, {}, stable_cos=0.9)  # below tau


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_sums_counts_and_ignores_order():
    a = _profile([1, 0, 4])
    b = _profile([2, 2, 0])
    c = _profile([0, 1, 1])
    forward = aggregate_profiles([a, b, c])
    backward = aggregate_profiles([c, b, a])
    np.testing.assert_array_equal(forward.counts, [3, 3, 5])
    assert forward == backward


def test_aggregate_validation():
    with pytest.raises(ValidationError):
        aggregate_profiles([])
    with pytest.raises(ValidationError):
        aggregate_profiles([_profile([1, 2]), _profile([1, 2, 3])])


# ---------------------------------------------------------------------------
# layer selection


def test_peaks_emit_the_following_layer():
    prof = _profile([0, 0, 9, 0, 0, 11, 0, 1, 0, 0, 0, 0])
    got = select_pruning_layers(prof, num_stages=2)
    assert got == LayerSelection(layers=(3, 6), fallback=False)


def test_small_bumps_below_mean_are_not_peaks():
    # layer 7 is a strict local max but sits below the profile mean
    prof = _profile([0, 0, 9, 0, 0, 11, 0, 1, 0, 0, 0, 0])
    got = select_pruning_layers(prof, num_stages=3)
    assert 8 not in got.layers


def test_flat_profile_falls_back_to_even_subdivision():
    got = select_pruning_layers(_profile([2] * 32), num_stages=3)
    assert got == LayerSelection(layers=(8, 16, 24), fallback=True)
    got4 = select_pruning_layers(_profile([2, 2, 2, 2]), num_stages=2)
    assert got4 == LayerSelection(layers=(1, 3), fallback=True)


def test_peak_ranking_prefers_count_then_earlier_layer():
    prof = _profile([0, 7, 0, 7, 0])
    got = select_pruning_layers(prof, num_stages=1)
    assert got.layers == (2,)


def test_min_gap_pushes_to_other_positions():
    prof = _profile([0, 10, 0, 9, 0, 0])
    got = select_pruning_layers(prof, num_stages=2, min_gap=3)
    assert got.layers == (2, 5) and not got.fallback


def test_peak_at_last_layer_has_no_room_after():
    prof = _profile([0, 0, 5])
    got = select_pruning_layers(prof, num_stages=1)
    # the only peak shifts across the final layer; padding fills the slot
    assert got == LayerSelection(layers=(2,), fallback=False)


def test_selection_validation():
    prof = _profile([0, 3, 0])
    with pytest.raises(ValidationError):
        select_pruning_layers(prof, num_stages=0)
    with pytest.raises(ValidationError):
        select_pruning_layers(prof, num_stages=4)
    with pytest.raises(ValidationError):
        select_pruning_layers(prof, num_stages=1, min_gap=0)


# ---------------------------------------------------------------------------
# schedule assembly


def test_build_schedule():
    sched = build_schedule([3, 6], [0.5, 0.25], [0.4, 0.8], num_layers=12)
    assert sched == PruningSchedule(
        stages=(PruningStage(3, 0.5, 0.4), PruningStage(6, 0.25, 0.8)),
        num_layers=12,
    )


def test_build_schedule_validation():
    with pytest.raises(ValidationError):
        build_schedule([3, 6], [0.5], [0.4, 0.8], num_layers=12)
    with pytest.raises(ValidationError):  # balances must be non-decreasing
        build_schedule([3, 6], [0.5, 0.5], [0.8, 0.4], num_layers=12)
    with pytest.raises(ValidationError):  # layer beyond depth
        build_schedule([3, 12], [0.5, 0.5], [0.4, 0.8], num_layers=12)
