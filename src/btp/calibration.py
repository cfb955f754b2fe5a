"""Offline calibration: locate the layers where image representations shift.

Given per-layer image hidden states from a handful of calibration prompts,
``shift_profile`` counts, for each consecutive layer pair, how many image
tokens moved by more than a cosine threshold.  Pruning right after the
layers where that count peaks is cheap and safe: the representation has
just been rewritten, so the tokens consumed downstream are already formed.
The hidden states arrive as plain arrays (a trace's memory-mapped views
serve as they are), and a profile holds nothing but the per-layer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .trace import PruningSchedule, PruningStage

DEFAULT_TAU = 0.93
DEFAULT_CALIBRATION_SIZE = 64
# shift_profile's float64 row blocks hold about this many bytes each, so
# they stay in cache
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class ShiftProfile:
    """Per-layer shift counts; ``counts[l]`` covers X^(l) -> X^(l+1)."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) < 1:
            raise ValidationError("shift profile is empty")
        if any(c < 0 for c in self.counts):
            raise ValidationError("shift counts must be non-negative")

    @property
    def num_layers(self) -> int:
        return len(self.counts)


def _snapshots(hidden_stack) -> list[np.ndarray]:
    """The snapshots of a hidden stack as [N, d] arrays, copying nothing."""
    if isinstance(hidden_stack, np.ndarray) and hidden_stack.ndim != 3:
        raise ValidationError(
            f"hidden stack must be [L+1, N, d], got shape {hidden_stack.shape}"
        )
    snaps = [np.asarray(snap) for snap in hidden_stack]
    for s, snap in enumerate(snaps):
        if snap.ndim != 2:
            raise ValidationError(
                f"hidden stack must be [L+1, N, d], got snapshot {s} of shape {snap.shape}"
            )
    if len(snaps) < 3:
        raise ValidationError(
            f"hidden stack needs at least 3 snapshots (2 layers), got {len(snaps)}"
        )
    for s, snap in enumerate(snaps):
        if snap.shape != snaps[0].shape:
            raise ValidationError(
                f"hidden snapshot {s} has shape {snap.shape}, snapshot 0 has {snaps[0].shape}"
            )
    return snaps


def _shift_sums(snaps, lo: int, hi: int, rows: int, norms, dots) -> None:
    """Write rows [lo, hi) of the squared ``norms`` and of ``dots``.

    The rows are walked one block of ``rows`` at a time across all
    snapshots, in three float64 blocks of this call's own.
    """
    d = snaps[0].shape[1]
    prev, cur, prod = (np.empty((rows, d)) for _ in range(3))
    for start in range(lo, hi, rows):
        stop = min(hi, start + rows)
        k = stop - start
        for s, snap in enumerate(snaps):
            np.copyto(cur[:k], snap[start:stop], casting="unsafe")
            np.multiply(cur[:k], cur[:k], out=prod[:k])
            np.add.reduce(prod[:k], axis=1, out=norms[s, start:stop])
            if s:
                np.multiply(prev[:k], cur[:k], out=prod[:k])
                np.add.reduce(prod[:k], axis=1, out=dots[s - 1, start:stop])
            prev, cur = cur, prev


def shift_profile(hidden_stack, tau: float = DEFAULT_TAU, workers: int = 1) -> ShiftProfile:
    """Count image tokens whose cosine to the next snapshot falls below tau.

    ``hidden_stack`` holds image hidden states for snapshots 0..L (layer
    inputs plus the final output): an [L+1, N, d] array or a sequence of
    L+1 [N, d] arrays, such as memory-mapped trace tensors.  Entry l of the
    result counts tokens with cos(X^(l)_i, X^(l+1)_i) < tau, computed in
    float64.  The snapshots are walked pair by pair, one block of rows at a
    time, so the float64 working set is three row blocks per worker plus
    the [L+1, N] norms and [L, N] dot products; the sums run over d for
    each row exactly as on a whole float64 stack.

    The N rows are split into contiguous ranges of whole blocks, one per
    thread, for up to ``workers`` threads (never more than there are
    blocks).  Each token's sums are the same whichever thread computes
    them, so the result does not depend on ``workers``.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must be in (0, 1), got {tau}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    snaps = _snapshots(hidden_stack)
    n, d = snaps[0].shape
    norms = np.empty((len(snaps), n))
    dots = np.empty((len(snaps) - 1, n))
    rows = max(1, min(n, _BLOCK_BYTES // max(1, 8 * d)))
    blocks = -(-n // rows)
    workers = min(workers, blocks)
    if workers > 1:
        import concurrent.futures

        cuts = [min(n, blocks * w // workers * rows) for w in range(workers + 1)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            jobs = [pool.submit(_shift_sums, snaps, lo, hi, rows, norms, dots)
                    for lo, hi in zip(cuts, cuts[1:])]
            for job in jobs:
                job.result()
    else:
        _shift_sums(snaps, 0, n, rows, norms, dots)
    np.sqrt(norms, out=norms)
    zero = np.argwhere(norms == 0)
    if zero.size:
        snap, tok = zero[0]
        raise ValidationError(
            f"zero-norm hidden state at snapshot {snap}, image token {tok}"
        )
    counts = np.count_nonzero(dots / (norms[:-1] * norms[1:]) < tau, axis=1)
    return ShiftProfile(tuple(int(c) for c in counts))


def aggregate_profiles(profiles: Iterable[ShiftProfile]) -> ShiftProfile:
    """Sum per-sample shift counts into one calibration profile.

    Counts add, so the result is invariant to sample order.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("no profiles to aggregate")
    length = profiles[0].num_layers
    if any(p.num_layers != length for p in profiles):
        raise ValidationError("profiles cover different layer counts")
    return ShiftProfile(tuple(map(sum, zip(*(p.counts for p in profiles)))))


@dataclass(frozen=True)
class LayerSelection:
    """Chosen pruning layers; ``fallback`` flags a flat profile."""

    layers: tuple[int, ...]
    fallback: bool


def _even_subdivision(num_layers: int, num_stages: int) -> list[int]:
    # e.g. 32 layers, 3 stages -> [8, 16, 24]
    return [round((i + 1) * num_layers / (num_stages + 1)) for i in range(num_stages)]


def select_pruning_layers(profile: ShiftProfile, num_stages: int, min_gap: int = 1) -> LayerSelection:
    """Pick pruning layers from a shift profile.

    Peaks are strict local maxima of the count curve (one-sided at the
    ends) that also exceed the profile mean.  Peaks are ranked by count
    (higher first, earlier layer on ties) and greedily accepted unless the
    emitted layer, which is peak + 1 so pruning happens right after the
    shift, lands within ``min_gap`` of an accepted one.  The list is then
    sorted ascending and truncated or padded by even subdivision of the
    depth.  A profile with no qualifying peak falls back entirely to even
    subdivision, flagged via ``fallback``.
    """
    if num_stages < 1:
        raise ValidationError(f"num_stages must be >= 1, got {num_stages}")
    if min_gap < 1:
        raise ValidationError(f"min_gap must be >= 1, got {min_gap}")
    counts = np.asarray(profile.counts, dtype=np.int64)
    num_layers = profile.num_layers
    if num_stages > num_layers:
        raise ValidationError(
            f"cannot place {num_stages} stages in {num_layers} layers"
        )
    mean = counts.mean()
    peaks = []
    for l in range(num_layers):
        left_ok = l == 0 or counts[l] > counts[l - 1]
        right_ok = l == num_layers - 1 or counts[l] > counts[l + 1]
        if left_ok and right_ok and counts[l] > mean:
            peaks.append(l)

    if not peaks:
        return LayerSelection(
            layers=tuple(_even_subdivision(num_layers, num_stages)), fallback=True
        )

    ranked = sorted(peaks, key=lambda l: (-counts[l], l))
    chosen: list[int] = []
    for peak in ranked:
        emit = peak + 1
        if emit >= num_layers:
            continue  # a shift across the last layer has no layer after it
        if all(abs(emit - c) >= min_gap for c in chosen):
            chosen.append(emit)
        if len(chosen) == num_stages:
            break
    # pad from even subdivision, then from any depth position, earliest first
    for candidate in chain(_even_subdivision(num_layers, num_stages), range(1, num_layers)):
        if len(chosen) == num_stages:
            break
        if all(abs(candidate - c) >= min_gap for c in chosen):
            chosen.append(candidate)
    if len(chosen) < num_stages:
        raise ValidationError(
            f"could not place {num_stages} layers with min_gap={min_gap} "
            f"in {num_layers} layers"
        )
    return LayerSelection(layers=tuple(sorted(chosen)), fallback=False)


def build_schedule(
    layers: Sequence[int],
    retentions: Sequence[float],
    balances: Sequence[float],
    num_layers: int,
) -> PruningSchedule:
    """Assemble a validated schedule from parallel per-stage lists."""
    if not (len(layers) == len(retentions) == len(balances)):
        raise ValidationError(
            f"per-stage lists differ in length: {len(layers)} layers, "
            f"{len(retentions)} retentions, {len(balances)} balances"
        )
    stages = tuple(
        PruningStage(layer=int(l), retention=float(r), balance=float(b))
        for l, r, b in zip(layers, retentions, balances)
    )
    return PruningSchedule(stages=stages, num_layers=num_layers)


def synthetic_shift_stack(
    rng: np.random.Generator,
    num_layers: int,
    n_image: int,
    d: int,
    shifted: Mapping[int, int],
    tau: float = DEFAULT_TAU,
    stable_cos: float = 0.999,
    shift_cos: float | None = None,
) -> np.ndarray:
    """Hidden stack [num_layers+1, n_image, d] with shifts planted by layer.

    Every token rotates by a small angle (cosine ``stable_cos`` > tau) at
    every layer; at layer l, the first ``shifted[l]`` tokens rotate by a
    large angle (cosine ``shift_cos`` < tau) instead.  Rotations happen in
    the plane spanned by the token and a random orthogonal direction, so
    consecutive cosines are exact by construction.
    """
    if d < 2:
        raise ValidationError("need d >= 2 to rotate")
    if shift_cos is None:
        shift_cos = tau - 0.05
    if not -1.0 < shift_cos < tau < stable_cos < 1.0:
        raise ValidationError(
            f"need shift_cos < tau < stable_cos, got {shift_cos}, {tau}, {stable_cos}"
        )
    for layer, count in shifted.items():
        if not 0 <= layer < num_layers:
            raise ValidationError(f"planted layer {layer} outside [0, {num_layers})")
        if not 0 <= count <= n_image:
            raise ValidationError(f"planted count {count} outside [0, {n_image}]")

    state = rng.standard_normal((n_image, d))
    state /= np.linalg.norm(state, axis=1)[:, None]
    snapshots = [state.copy()]
    for layer in range(num_layers):
        big = shifted.get(layer, 0)
        cos = np.full(n_image, stable_cos)
        cos[:big] = shift_cos
        sin = np.sqrt(1.0 - cos * cos)
        # random unit direction orthogonal to each token
        raw = rng.standard_normal((n_image, d))
        raw -= (raw * state).sum(axis=1)[:, None] * state
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        state = cos[:, None] * state + sin[:, None] * raw
        state /= np.linalg.norm(state, axis=1)[:, None]
        snapshots.append(state.copy())
    return np.stack(snapshots).astype(np.float32)
