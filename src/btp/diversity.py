"""Max-min diversity selection: greedy dispersion plus a brute-force oracle.

Selecting k image tokens that maximize the minimum pairwise distance is the
max-min diversity problem; it is NP-hard, so the engine uses the classic
greedy heuristic (repeatedly add the candidate farthest from the current
set).  For metrics satisfying the triangle inequality the greedy set's
minimum distance is at least half the optimum; ``brute_force_maxmin`` is
the exhaustive reference used to check that bound on small instances.

Manhattan and euclidean distances all come from ``distance_rows``, one
centre's row of distances to every point per call, so no [N, N, d]
difference tensor is ever built: the greedy pulls only the row of each
point it picks, O(k * N * d) work and O(N * d) memory.  Cosine distance is
one [N, N] matrix product of float64 unit rows, which ``unit_rows`` builds
once per candidate set, a cache-sized block of rows at a time, straight
from the caller's rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .trace import SEED_RULES, SEMANTIC_METRICS, SPATIAL_METRICS

# float64 bytes of the block of rows unit_rows normalises at a time, small
# enough to stay in cache across its passes; a single row is done whole
UNIT_BLOCK_BYTES = 256 * 2**10


class ZeroNormRow(ValidationError):
    """Cosine distance is undefined for row ``row`` of the points: its norm is 0."""

    def __init__(self, row: int) -> None:
        super().__init__(f"cosine distance undefined for zero-norm row at index {row}")
        self.row = row


@dataclass(frozen=True)
class UnitRows:
    """Float64 unit-norm rows from ``unit_rows``; ``distance_matrix`` takes
    them as already normalised."""

    array: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape


@dataclass(frozen=True)
class DiversityConfig:
    """Metric and seeding choices for the two diversity passes.

    ``spatial_metric`` acts on grid coordinates, ``semantic_metric`` on
    hidden states, ``seed_rule`` picks the first point when no initial set
    is supplied.
    """

    spatial_metric: str = "manhattan"
    semantic_metric: str = "cosine_distance"
    seed_rule: str = "farthest_from_centroid"

    def __post_init__(self) -> None:
        if self.spatial_metric not in SPATIAL_METRICS:
            raise ValidationError(f"unknown spatial metric {self.spatial_metric!r}")
        if self.semantic_metric not in SEMANTIC_METRICS:
            raise ValidationError(f"unknown semantic metric {self.semantic_metric!r}")
        if self.seed_rule not in SEED_RULES:
            raise ValidationError(f"unknown seed rule {self.seed_rule!r}")


def _points(points, index=None, dtype=None) -> np.ndarray:
    """Rows ``index`` (all when None) of the [N, d] ``points`` as ``dtype``
    (unchanged when None); indexes before it casts."""
    src = np.asarray(points)
    if src.ndim != 2:
        raise ValidationError(f"points must be [N, d], got shape {src.shape}")
    return np.asarray(src if index is None else src[index], dtype=dtype)


def unit_rows(points, index=None) -> np.ndarray:
    """Rows of ``points``, or ``points[index]``, as float64 unit vectors.

    ``points`` may be float32 or float64; each block of rows is cast, squared,
    summed over d, square-rooted and divided in place in the float64 output,
    so the result is bit-identical to
    ``pts / np.linalg.norm(pts, axis=1)[:, None]`` on the float64 rows
    without their copy.  A zero-norm row raises ``ZeroNormRow`` naming its
    row of ``points``.
    """
    src = _points(points)
    rows = None if index is None else np.asarray(index, dtype=np.int64).reshape(-1)
    n = src.shape[0] if rows is None else rows.size
    d = src.shape[1]
    out = np.empty((n, d))
    step = max(1, min(n, UNIT_BLOCK_BYTES // max(1, d * 8)))
    squares = np.empty((step, d))
    norms = np.empty(step)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = out[start:stop]
        block[...] = src[start:stop] if rows is None else src[rows[start:stop]]
        sq, norm = squares[:stop - start], norms[:stop - start]
        np.multiply(block, block, out=sq)
        np.add.reduce(sq, axis=1, out=norm)
        np.sqrt(norm, out=norm)
        if not norm.all():
            bad = start + int(np.flatnonzero(norm == 0)[0])
            raise ZeroNormRow(bad if rows is None else int(rows[bad]))
        np.divide(block, norm[:, None], out=block)
    return out


def distance_rows(points, centre, metric: str) -> np.ndarray:
    """Manhattan or euclidean distances from one [d] ``centre`` to every point.

    Returns float64 [N].  Each distance reduces one contiguous length-d row
    of the float64 difference, as a dense [N, N, d] computation would, so
    the values are bit-identical to it.
    """
    pts = _points(points, dtype=np.float64)
    if metric not in SPATIAL_METRICS:
        raise ValidationError(f"unknown elementwise metric {metric!r}")
    centre = np.asarray(centre, dtype=np.float64)
    if centre.shape != pts.shape[1:]:
        raise ValidationError(f"centre must be [{pts.shape[1]}], got shape {centre.shape}")
    diff = centre - pts
    if metric == "manhattan":
        return np.abs(diff, out=diff).sum(axis=1)
    out = np.multiply(diff, diff, out=diff).sum(axis=1)
    return np.sqrt(out, out=out)


def distance_matrix(points, metric: str) -> np.ndarray:
    """Dense pairwise distances, float64, shape [N, N].

    For cosine distance ``points`` may be ``UnitRows``, used as they are;
    the Gram product is then clipped and subtracted from 1 in place.
    """
    if metric == "cosine_distance":
        unit = points.array if isinstance(points, UnitRows) else unit_rows(points)
        dmat = unit @ unit.T
        np.clip(dmat, -1.0, 1.0, out=dmat)
        np.subtract(1.0, dmat, out=dmat)
        np.fill_diagonal(dmat, 0.0)
        return dmat
    pts = _points(points, dtype=np.float64)
    if metric not in SPATIAL_METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    dmat = np.empty((len(pts), len(pts)))
    for i, centre in enumerate(pts):
        dmat[i] = distance_rows(pts, centre, metric)
    return dmat


def pair_distances(points, subset, metric: str) -> np.ndarray:
    """Distances over the unordered pairs of ``subset``, in ``np.triu_indices`` order.

    Only the subset's rows are converted to float64.  Elementwise metrics
    are computed one row of the upper triangle at a time, in
    O(len(subset) * d) memory.
    """
    src = _points(points)
    idx = np.asarray(list(subset), dtype=np.int64)
    m = idx.size
    if m < 2:
        return np.empty(0)
    if metric == "cosine_distance":
        unit = UnitRows(unit_rows(src, idx))
        return distance_matrix(unit, metric)[np.triu_indices(m, k=1)]
    pts = _points(src, idx, np.float64)
    return np.concatenate([distance_rows(pts[i + 1:], pts[i], metric) for i in range(m - 1)])


def min_pairwise_distance(points, subset, metric: str) -> float:
    """Smallest pairwise distance within ``subset``; 0.0 below two points."""
    pairs = pair_distances(points, subset, metric)
    return float(pairs.min()) if pairs.size else 0.0


def sum_of_distances(points, subset, metric: str) -> float:
    """Sum over unordered pairs within ``subset``; 0.0 below two points."""
    return float(pair_distances(points, subset, metric).sum())


def _greedy_extend(row_of, n: int, k: int, initial: list[int]) -> list[int]:
    """Grow ``initial`` to k of n points, each step taking the candidate whose
    minimum distance to the selected set is largest (lower index on ties).

    ``row_of(s)`` gives point s's distance row; it is asked once per point
    selected.
    """
    selected = list(initial)
    min_dist = np.full(n, np.inf)
    for s in selected:
        np.minimum(min_dist, row_of(s), out=min_dist)
        min_dist[s] = -np.inf
    while len(selected) < k:
        pick = int(np.argmax(min_dist))  # argmax returns the first maximum
        selected.append(pick)
        np.minimum(min_dist, row_of(pick), out=min_dist)
        min_dist[pick] = -np.inf
    return selected


def greedy_maxmin(
    candidates,
    k: int,
    metric: str = "cosine_distance",
    initial=None,
    seed_rule: str = "farthest_from_centroid",
    rows=None,
) -> np.ndarray:
    """Greedy max-min dispersion over candidate vectors.

    The candidates are ``candidates[rows]``, or every row when ``rows`` is
    None; indices into them are positions in ``rows``.  Returns k candidate
    indices in selection order.  ``initial`` pins the first members (it may
    be any size up to k); otherwise the seed comes from ``seed_rule``:
    candidate 0, or the candidate farthest from the centroid under
    ``metric`` (lower index on ties).  A zero-norm candidate under cosine
    distance raises ``ZeroNormRow`` naming its row of ``candidates``.
    """
    src = np.asarray(candidates)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    shape = src.shape if rows is None or src.ndim != 2 else (rows.size, src.shape[1])
    if len(shape) != 2 or shape[0] == 0:
        raise ValidationError(f"candidates must be [N, d], got shape {shape}")
    n = shape[0]
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    if metric == "cosine_distance":
        unit = unit_rows(src, rows)
        # one GEMM matrix: per-row GEMVs are memory-bound and round differently
        row_of = distance_matrix(UnitRows(unit), metric).__getitem__
    else:
        pts = _points(src, rows, np.float64)
        row_of = lambda s: distance_rows(pts, pts[s], metric)

    if initial is not None and len(initial) > 0:
        seed = [int(i) for i in initial]
        if len(set(seed)) != len(seed):
            raise ValidationError(f"initial selection has duplicates: {seed}")
        if any(not 0 <= i < n for i in seed):
            raise ValidationError(f"initial selection out of range [0, {n}): {seed}")
        if len(seed) > k:
            raise ValidationError(f"initial selection larger than k={k}: {seed}")
    elif seed_rule == "spatial_first_point":
        seed = [0]
    elif seed_rule == "farthest_from_centroid":
        if metric == "cosine_distance":  # the raw rows are needed for the centroid only
            centroid = _points(src, rows, np.float64).mean(axis=0)
            cnorm = np.linalg.norm(centroid)
            if cnorm == 0:
                raise ValidationError(
                    "cosine seed undefined: candidate centroid has zero norm"
                )
            dist = 1.0 - np.clip(unit @ (centroid / cnorm), -1.0, 1.0)
        else:
            dist = distance_rows(pts, pts.mean(axis=0), metric)
        seed = [int(np.argmax(dist))]
    else:
        raise ValidationError(f"unknown seed rule {seed_rule!r}")

    return np.asarray(_greedy_extend(row_of, n, k, seed), dtype=np.int64)


def grid_coordinates(grid_rows: int, grid_cols: int) -> np.ndarray:
    """(row, col) of every cell of a grid, row-major, float64 [rows * cols, 2]."""
    cells = np.arange(grid_rows * grid_cols)
    return np.stack(np.divmod(cells, grid_cols), axis=1).astype(np.float64)


def spatial_init(grid_rows: int, grid_cols: int, k: int, metric: str = "manhattan") -> np.ndarray:
    """Greedy max-min over grid cells, seeded at cell (0, 0).

    Cells are flattened row-major; returns k flattened indices in selection
    order.  Ties take the lowest flattened index, so the result depends only
    on the grid shape.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValidationError("grid extents must be positive")
    if metric not in SPATIAL_METRICS:
        raise ValidationError(f"unknown spatial metric {metric!r}")
    n = grid_rows * grid_cols
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    coords = grid_coordinates(grid_rows, grid_cols)
    row_of = lambda s: distance_rows(coords, coords[s], metric)
    return np.asarray(_greedy_extend(row_of, n, k, [0]), dtype=np.int64)


def brute_force_maxmin(
    candidates, k: int, metric: str, guard: int = 1_000_000
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive max-min reference: (optimal min distance, best subset).

    Enumerates all C(N, k) subsets, so it refuses instances where that
    count exceeds ``guard``.  Ties resolve to the lexicographically
    smallest subset.  A singleton subset has min distance +inf.
    """
    pts = np.asarray(candidates, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError(f"candidates must be [N, d], got shape {pts.shape}")
    n = pts.shape[0]
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    count = math.comb(n, k)
    if count > guard:
        raise ValidationError(
            f"instance too large: C({n}, {k}) = {count} subsets exceeds guard {guard}"
        )
    if k == 1:
        return math.inf, (0,)
    dmat = distance_matrix(pts, metric)
    best_val = -math.inf
    best_subset: tuple[int, ...] = ()
    for subset in itertools.combinations(range(n), k):
        idx = np.asarray(subset)
        val = dmat[np.ix_(idx, idx)][np.triu_indices(k, k=1)].min()
        if val > best_val:
            best_val = float(val)
            best_subset = subset
    return best_val, best_subset
