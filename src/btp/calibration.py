"""Offline calibration: locate the layers where image representations shift.

Given per-layer image hidden states from a handful of calibration prompts,
``shift_profile`` counts, for each consecutive layer pair, how many image
tokens moved by more than a cosine threshold.  Pruning right after the
layers where that count peaks is cheap and safe: the representation has
just been rewritten, so the tokens consumed downstream are already formed.
The hidden states arrive as plain arrays (a trace's memory-mapped views
serve as they are), and a profile holds nothing but the per-layer counts.

A token's shift is decided by the side of tau on which its cosine
c = p / sqrt(q_l q_l+1) falls, where the squared norms q and the dot
product p are sums of d products.  The counts are those of c taken from
float64 sums.  Float32 rows multiply exactly in float64, so there only
the additions round.  ``shift_profile`` first takes the sums in float32,
straight from float32 rows, and lets them decide every token they
provably can:

- With u = 2**-24 and gamma_n = n u / (1 - n u), a float32 sum of d
  products is within gamma_d of its exact value, relative to the sum of
  the products' magnitudes (in any summation order, with or without fused
  multiply-add).  Gradual underflow adds at most 2**-150 per product, so
  at most e = d 2**-149 in all.  Above the floor q > 2**26 e = d 2**-123,
  that is less than u relative to the norms, so each sum is within
  eps = gamma_(d+1) of its exact value relative to the norms' product,
  and the float32 cosine within 2 eps / (1 - eps) of the exact one.
- The float64 cosine is within 2 g / (1 - g) of the exact one, with
  g = gamma_d at u = 2**-53.  Both cosines take two square roots, a
  product and a quotient from their sums: four more roundings each, of
  gamma_4 at u = 2**-53 relative to a value below 2.
- So a float32 cosine further than
  margin = 2 eps / (1 - eps) + 2 g / (1 - g) + 4 gamma_4
  from tau (4.9e-4 at d = 4096) lies on the same side of tau as the
  float64 one.

A token is refined, that is its float64 sums are taken from its rows
while they are still in cache, when any of its cosines lies within the
margin of tau, or when one of its float32 sums is not finite (NaN or
infinite values, or |x| >= 2**64, whose squares overflow) or one of its
squared norms is at or below the floor (zero, subnormal and near-zero
rows).  Stacks that are not float32 send every token there.  A zero-norm
or non-finite float64 sum is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .trace import DEFAULT_TAU, PruningSchedule, PruningStage

# shift_profile's row blocks would hold about this many bytes in float64
# (half as many in float32), so they stay in cache.  Half this size made
# the walk 37% slower at d = 4096 on a 2-CPU x86-64 machine, as it doubles
# the numpy calls
_BLOCK_BYTES = 1 << 19
# unit roundoff of float32 and float64
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53


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


def _gamma(n: int, u: float) -> float:
    """Relative error bound of a sum of n rounded terms (Higham's gamma_n)."""
    return n * u / (1 - n * u)


def _filter_bounds(d: int) -> tuple[float, float]:
    """The float32 filter's (margin, floor) for rows of width ``d``.

    A cosine taken from float32 sums lies within ``margin`` of the one
    taken from float64 sums whenever both squared norms exceed ``floor``
    and every sum is finite; see the module docstring for the bound.
    Past d of about 3.4 million the float32 sums decide nothing, and the
    bounds are infinite.
    """
    if (d + 1) * _U32 > 0.2:
        return np.inf, np.inf
    g32 = _gamma(d + 1, _U32)
    g64 = _gamma(d, _U64)
    margin = 2 * g32 / (1 - g32) + 2 * g64 / (1 - g64) + 4 * _gamma(4, _U64)
    return margin, d * 2.0 ** -123


def _cosines(dots, sq_norms):
    """Consecutive-snapshot cosines [L, m] from squared norms [L+1, m]."""
    norms = np.sqrt(sq_norms, dtype=np.float64)
    return dots / (norms[:-1] * norms[1:])


def _shift_sums(snaps, idx):
    """Float64 squared norms [L+1, m] and consecutive dots [L, m] of rows ``idx``.

    The rows are gathered into float64 blocks of their own, one snapshot
    at a time, and each sum runs over d exactly as on a whole float64
    stack.
    """
    d = snaps[0].shape[1]
    sq = np.empty((len(snaps), len(idx)))
    dots = np.empty((len(snaps) - 1, len(idx)))
    prev, cur, prod = (np.empty((len(idx), d)) for _ in range(3))
    for s, snap in enumerate(snaps):
        np.copyto(cur, snap[idx], casting="unsafe")
        np.multiply(cur, cur, out=prod)
        np.add.reduce(prod, axis=1, out=sq[s])
        if s:
            np.multiply(prev, cur, out=prod)
            np.add.reduce(prod, axis=1, out=dots[s - 1])
        prev, cur = cur, prev
    return sq, dots


def shift_profile(hidden_stack, tau: float = DEFAULT_TAU) -> ShiftProfile:
    """Count image tokens whose cosine to the next snapshot falls below tau.

    ``hidden_stack`` holds image hidden states for snapshots 0..L (layer
    inputs plus the final output): an [L+1, N, d] array or a sequence of
    L+1 [N, d] arrays, such as memory-mapped trace tensors.  Entry l of the
    result counts tokens with cos(X^(l)_i, X^(l+1)_i) < tau, computed in
    float64; float32 sums decide every token they provably can (see the
    module docstring), so the counts are those of the float64 sums.  A
    zero-norm or non-finite hidden state is an error, and the first one in
    (snapshot, token) order is named.

    The N rows are walked on the calling thread, one block of B rows at a
    time across all snapshots (B = 512 KiB / 8d, 16 at d = 4096), and each
    block's counts are added to the totals.  The walk holds the float32
    sums of its block, [L+1, B] and [L, B], and three float64 [m, d] blocks
    only while it refines m of those rows.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must be in (0, 1), got {tau}")
    snaps = _snapshots(hidden_stack)
    (n, d), n_snaps = snaps[0].shape, len(snaps)
    rows = max(1, min(n, _BLOCK_BYTES // max(1, 8 * d)))
    if all(snap.dtype == np.float32 for snap in snaps):
        margin, floor = _filter_bounds(d)
        sq32 = np.empty((n_snaps, rows), dtype=np.float32)
        dots32 = np.empty((n_snaps - 1, rows), dtype=np.float32)
    else:
        margin = None
    counts = np.zeros(n_snaps - 1, dtype=np.int64)
    first = None
    with np.errstate(all="ignore"):  # a bad row is reported, not warned about
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            k = stop - start
            if margin is None:
                refine = np.arange(start, stop)
            else:
                for s, snap in enumerate(snaps):
                    cur = snap[start:stop]
                    np.einsum("ij,ij->i", cur, cur, out=sq32[s, :k])
                    if s:
                        np.einsum("ij,ij->i", prev, cur, out=dots32[s - 1, :k])
                    prev = cur
                sq, dots = sq32[:, :k], dots32[:, :k]
                cos = _cosines(dots, sq)
                # nan fails both comparisons
                normal = (sq > floor) & (sq < np.inf)
                sure = (np.abs(cos - tau) > margin) & np.isfinite(dots) & normal[:-1] & normal[1:]
                decided = sure.all(axis=0)
                counts += np.count_nonzero((cos < tau) & decided, axis=1)
                refine = start + np.flatnonzero(~decided)
            if not refine.size:
                continue
            sq, dots = _shift_sums(snaps, refine)
            counts += np.count_nonzero(_cosines(dots, sq) < tau, axis=1)
            bad = (sq == 0) | ~np.isfinite(sq)
            if bad.any():
                s, j = np.argwhere(bad)[0]
                what = "zero-norm" if sq[s, j] == 0 else "non-finite"
                found = (int(s), int(refine[j]), what)
                first = found if first is None else min(first, found)
    if first is not None:
        snap, tok, what = first
        raise ValidationError(f"{what} hidden state at snapshot {snap}, image token {tok}")
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


def _pad(chosen: list[int], candidates: Iterable[int], num_stages: int, min_gap: int) -> list[int]:
    # keep each candidate, in order, that is min_gap from every layer kept
    padded = list(chosen)
    for candidate in candidates:
        if len(padded) == num_stages:
            break
        if all(abs(candidate - c) >= min_gap for c in padded):
            padded.append(candidate)
    return padded


def select_pruning_layers(profile: ShiftProfile, num_stages: int, min_gap: int = 1) -> LayerSelection:
    """Pick pruning layers from a shift profile.

    Peaks are strict local maxima of the count curve (one-sided at the
    ends) that also exceed the profile mean.  Peaks are ranked by count
    (higher first, earlier layer on ties) and greedily accepted unless the
    emitted layer, which is peak + 1 so pruning happens right after the
    shift, lands within ``min_gap`` of an accepted one.  The list is then
    sorted ascending and truncated or padded by even subdivision of the
    depth, then by any layer, under the same spacing rule.  When those picks
    block the rest, the peaks' picks are padded again by any layer, earliest
    first, which places the most layers around them.  A profile with
    no qualifying peak takes all its layers from the padding, flagged via
    ``fallback``.  Only layers 1..L-1 can hold a stage; stages that cannot
    be placed are a ``ValidationError``.
    """
    if num_stages < 1:
        raise ValidationError(f"num_stages must be >= 1, got {num_stages}")
    if min_gap < 1:
        raise ValidationError(f"min_gap must be >= 1, got {min_gap}")
    counts = np.asarray(profile.counts, dtype=np.int64)
    num_layers = profile.num_layers
    if num_stages > num_layers - 1:
        raise ValidationError(
            f"cannot place {num_stages} stages in {num_layers} layers: layer 0 "
            f"holds none, so at most {num_layers - 1} fit"
        )
    mean = counts.mean()
    peaks = []
    for l in range(num_layers):
        left_ok = l == 0 or counts[l] > counts[l - 1]
        right_ok = l == num_layers - 1 or counts[l] > counts[l + 1]
        if left_ok and right_ok and counts[l] > mean:
            peaks.append(l)

    ranked = sorted(peaks, key=lambda l: (-counts[l], l))
    # a shift across the last layer has no layer after it
    chosen = _pad([], (l + 1 for l in ranked if l + 1 < num_layers), num_stages, min_gap)
    padded = _pad(chosen, chain(_even_subdivision(num_layers, num_stages), range(1, num_layers)),
                  num_stages, min_gap)
    if len(padded) < num_stages:
        padded = _pad(chosen, range(1, num_layers), num_stages, min_gap)
    if len(padded) < num_stages:
        raise ValidationError(
            f"could not place {num_stages} layers with min_gap={min_gap} "
            f"in {num_layers} layers"
        )
    return LayerSelection(layers=tuple(sorted(padded)), fallback=not peaks)


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
