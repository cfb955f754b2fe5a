"""Shift profiling, pruning-layer selection, and the synthetic stack builder."""

import concurrent.futures
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btp.calibration
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


def _profile_on(workers, stack, **kwargs):
    """``shift_profile`` with ``BTP_THREADS`` set to ``workers``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BTP_THREADS", str(workers))
        return shift_profile(stack, **kwargs)


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
            _profile_on(workers, given, tau=tau).counts,
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
        _profile_on(1, stack)
    for workers in (2, 3, 5):
        with pytest.raises(ValidationError) as split:
            _profile_on(workers, stack)
        assert str(split.value) == str(serial.value)


class InlinePool:
    """Stands in for ``ThreadPoolExecutor``: appends ``max_workers`` to
    ``created`` and runs each job when it is submitted, so no thread starts
    and no initializer runs."""

    def __init__(self, max_workers, created, **initializer):
        created.append(max_workers)

    def shutdown(self, wait=True, cancel_futures=False):
        pass

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
        lambda max_workers, **initializer: InlinePool(max_workers, created, **initializer),
    )
    stack = list(_random_stacks())[4]  # 64 rows of width 4096: 8 blocks
    serial = _profile_on(1, stack)
    assert created == []
    assert _profile_on(100000, stack) == serial
    assert _profile_on(3, stack) == serial
    assert created == [8, 3]
    _profile_on(100000, list(_random_stacks())[0])  # one row, one block
    assert created == [8, 3]
    with pytest.raises(ValidationError, match="BTP_THREADS must be >= 1, got 0"):
        _profile_on(0, stack)


def test_shift_profile_workers_switching_every_microsecond():
    # more threads than cores, each writing its own rows of the shared
    # sums: a row written by two threads or by none changes the counts
    stack = np.cumsum(
        np.random.default_rng(46).standard_normal((9, 200, 1024), dtype=np.float32), axis=0
    )
    serial = _profile_on(1, stack)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _profile_on(7, stack) == serial
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


@pytest.mark.parametrize("bad", [
    [(2, 3, np.nan)],                       # first worker's range only
    [(1, 63, np.inf)],                      # last worker's range only
    [(3, 5, -np.inf), (2, 60, np.nan)],     # both: the earlier snapshot is named
    [(2, 7, np.nan), (2, 56, np.inf)],      # both, one snapshot: the earlier token
    [(2, 40, np.nan), (3, 1, 0.0)],         # a zero row after a non-finite one
    [(1, 40, 0.0), (3, 1, np.nan)],         # a non-finite row after a zero one
])
def test_shift_profile_names_the_first_bad_hidden_state(bad):
    stack = np.random.default_rng(48).standard_normal((5, 64, 4096), dtype=np.float32)
    for snap, tok, value in bad:
        if value == 0.0:
            stack[snap, tok] = 0.0
        else:
            stack[snap, tok, 11] = value
    snap, tok, value = min(bad, key=lambda b: b[:2])
    what = "zero-norm" if value == 0.0 else "non-finite"
    message = f"{what} hidden state at snapshot {snap}, image token {tok}"
    for hidden in (stack, stack.astype(np.float64)):
        for workers in (1, 2, 3, 5):
            with pytest.raises(ValidationError) as info:
                _profile_on(workers, hidden)
            assert str(info.value) == message


def _recording_exact_sums(monkeypatch):
    """Wrap ``_shift_sums``; return the list of row indices it is called with."""
    calls = []
    exact = btp.calibration._shift_sums

    def recording(snaps, idx):
        calls.append(np.asarray(idx).tolist())
        return exact(snaps, idx)

    monkeypatch.setattr(btp.calibration, "_shift_sums", recording)
    return calls


@pytest.mark.parametrize("workers", [1, 3])
def test_shift_profile_refines_only_the_rows_near_tau(monkeypatch, workers):
    calls = _recording_exact_sums(monkeypatch)
    rng = np.random.default_rng(49)
    far = synthetic_shift_stack(rng, num_layers=6, n_image=64, d=4096, shifted={2: 30},
                                stable_cos=0.999, shift_cos=0.5)
    assert _profile_on(workers, far).counts == (0, 0, 30, 0, 0, 0)
    assert calls == []

    # 1e-7 from tau, far inside the float32 bound of 5e-4 at d = 4096
    near = synthetic_shift_stack(rng, num_layers=6, n_image=64, d=4096, shifted={4: 64},
                                 stable_cos=0.93 + 1e-7, shift_cos=0.93 - 1e-7)
    rows = [3, 8, 9, 10, 17, 40, 63]  # in the first, second, third, sixth and last block
    mixed = far.copy()
    mixed[:, rows] = near[:, rows]
    want = shift_profile(mixed.astype(np.float64)).counts
    calls.clear()
    assert _profile_on(workers, mixed).counts == want
    assert sorted(sum(calls, [])) == rows


def test_shift_profile_sends_other_dtypes_through_the_exact_sums(monkeypatch):
    calls = _recording_exact_sums(monkeypatch)
    stack = list(_random_stacks())[4]  # 64 rows of width 4096: 8 blocks
    _profile_on(2, stack.astype(np.float64))
    assert sorted(sum(calls, [])) == list(range(64))


# per-row scales of a float32 filter case: 1; subnormal values; normal
# values whose squares are subnormal or zero; and values whose float32
# squares (2**128 and up) overflow
FILTER_SCALES = (1.0, 2.0 ** -140, 2.0 ** -120, 2.0 ** -70, 2.0 ** 64, 2.0 ** 70)


@st.composite
def filter_cases(draw):
    """A float32 [S, N, d] stack and a tau, drawn so that the float32 filter
    meets every row it must refine: cosines a few ulps either side of tau,
    subnormal and overflowing rows, and zero or non-finite hidden states."""
    snaps, n, d = draw(st.integers(3, 5)), draw(st.integers(1, 24)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a random walk, where tokens drawn as near rotate by cos 0.93 +- 1e-7
    state = rng.standard_normal((n, d))
    near = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    stack = [state]
    for _ in range(snaps - 1):
        step = rng.standard_normal((n, d))
        if d > 1:
            unit = state / np.linalg.norm(state, axis=1, keepdims=True)
            ortho = step - (step * unit).sum(axis=1, keepdims=True) * unit
            ortho /= np.linalg.norm(ortho, axis=1, keepdims=True)
            cos = 0.93 + rng.choice([-1e-7, 1e-7], size=(n, 1))
            rotated = np.linalg.norm(state, axis=1, keepdims=True) * (
                cos * unit + np.sqrt(1 - cos * cos) * ortho
            )
            step = np.where(near[:, None], rotated, state + step)
        else:
            step = state + step
        state = step
        stack.append(state)
    stack = np.stack(stack)
    scales = rng.choice(FILTER_SCALES, size=(snaps, n, 1))
    stack = (stack * scales).astype(np.float32)
    for _ in range(draw(st.integers(0, 2))):
        snap, tok = draw(st.integers(0, snaps - 1)), draw(st.integers(0, n - 1))
        value = draw(st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
        if value == 0.0:
            stack[snap, tok] = 0.0
        else:
            stack[snap, tok, draw(st.integers(0, d - 1))] = value
    # tau is 0.93 or a computed cosine moved by a few ulps
    tau = 0.93
    with np.errstate(all="ignore"):  # zero and non-finite rows
        sq, dots = btp.calibration._shift_sums(stack, np.arange(n))
        cos = btp.calibration._cosines(dots, sq)
    inside = cos[(cos > 0) & (cos < 1)]
    if inside.size and draw(st.booleans()):
        tau = float(inside[draw(st.integers(0, inside.size - 1))])
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            tau = float(np.nextafter(tau, 2.0 if ulps > 0 else 0.0))
    return stack, tau


def _outcome(stack, tau, workers=1):
    try:
        return _profile_on(workers, stack, tau=tau).counts
    except ValidationError as exc:
        return str(exc)


@settings(deadline=None, max_examples=200)
@given(case=filter_cases())
def test_float32_filter_gives_the_float64_outcome(case):
    stack, tau = case
    want = _outcome(stack.astype(np.float64), tau)  # every row through the float64 sums
    # blocks of 3 rows, so that 24 rows give up to 8 blocks over 3 workers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(btp.calibration, "_BLOCK_BYTES", 24 * stack.shape[2])
        for workers in (1, 2, 3):
            assert _outcome(stack, tau, workers) == want


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


def test_flat_profile_fallback_keeps_min_gap_and_distinct_layers():
    with pytest.raises(ValidationError,
                       match="could not place 3 layers with min_gap=20 in 32 layers"):
        select_pruning_layers(_profile([0] * 32), num_stages=3, min_gap=20)
    got = select_pruning_layers(_profile([0] * 32), num_stages=2, min_gap=20)
    assert got == LayerSelection(layers=(11, 31), fallback=True)
    # layer 0 holds no stage, so 3 layers fit 2 stages at most
    with pytest.raises(ValidationError, match="cannot place 3 stages in 3 layers"):
        select_pruning_layers(_profile([0] * 3), num_stages=3)
    got = select_pruning_layers(_profile([0] * 3), num_stages=2)
    assert got == LayerSelection(layers=(1, 2), fallback=True)


def test_padding_that_the_even_picks_block_restarts_earliest_first():
    # the even picks 8 and 24 leave no layer 10 from both; 1, 11, 21 fits
    got = select_pruning_layers(_profile([0] * 32), num_stages=3, min_gap=10)
    assert got == LayerSelection(layers=(1, 11, 21), fallback=True)
    got = select_pruning_layers(_profile([0] * 32), num_stages=3, min_gap=15)
    assert got == LayerSelection(layers=(1, 16, 31), fallback=True)


@settings(deadline=None, max_examples=300)
@given(
    num_layers=st.integers(1, 40),
    level=st.integers(0, 3),
    num_stages=st.integers(1, 8),
    min_gap=st.integers(1, 20),
)
def test_flat_profile_places_stages_whenever_they_fit(num_layers, level, num_stages, min_gap):
    # S stages min_gap apart fit in layers 1..L-1 iff 1 + (S-1)*gap <= L-1
    fits = 1 + (num_stages - 1) * min_gap <= num_layers - 1
    try:
        got = select_pruning_layers(_profile([level] * num_layers), num_stages, min_gap=min_gap)
    except ValidationError:
        assert not fits
        return
    assert fits and got.fallback and len(got.layers) == num_stages


@settings(deadline=None, max_examples=300)
@given(
    counts=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    num_stages=st.integers(0, 6),
    min_gap=st.integers(0, 5),
)
def test_selected_layers_are_increasing_spaced_and_in_range(counts, num_stages, min_gap):
    try:
        got = select_pruning_layers(_profile(counts), num_stages, min_gap=min_gap)
    except ValidationError:
        return
    layers = got.layers
    assert len(layers) == num_stages
    assert all(1 <= layer < len(counts) for layer in layers)
    assert all(b - a >= min_gap for a, b in zip(layers, layers[1:]))
    assert all(b > a for a, b in zip(layers, layers[1:]))


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
