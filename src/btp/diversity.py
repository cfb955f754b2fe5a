"""Max-min diversity selection: greedy dispersion plus a brute-force oracle.

Selecting k image tokens that maximize the minimum pairwise distance is the
max-min diversity problem; it is NP-hard, so the engine uses the classic
greedy heuristic (repeatedly add the candidate farthest from the current
set).  For metrics satisfying the triangle inequality the greedy set's
minimum distance is at least half the optimum; ``brute_force_maxmin`` is
the exhaustive reference used to check that bound on small instances.

Manhattan and euclidean distances are computed a block of rows at a time
(``distance_rows``), so no [N, N, d] difference tensor is ever built: the
greedy pulls only the row of each point it picks, O(k * N * d) work and
O(N * d) memory.  Cosine distance is one [N, N] matrix product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SPATIAL_METRICS = ("manhattan", "euclidean")
SEMANTIC_METRICS = ("cosine_distance", "euclidean")
SEED_RULES = ("spatial_first_point", "farthest_from_centroid")
ELEMENTWISE_METRICS = ("manhattan", "euclidean")

# largest [rows, N, d] float64 difference block distance_rows allocates;
# a single row is computed whole even when it is larger
BLOCK_BYTES = 32 * 2**20


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


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValidationError(f"points must be [N, d], got shape {pts.shape}")
    return pts


def distance_rows(points, rows, metric: str) -> np.ndarray:
    """Manhattan or euclidean distances from ``points[rows]`` to every point.

    Returns float64 [len(rows), N].  Rows are computed in blocks whose
    difference temporary stays within ``BLOCK_BYTES``; each distance reduces
    the same contiguous d-axis as a dense [N, N, d] computation would, so
    the values are bit-identical to it.
    """
    pts = _as_points(points)
    if metric not in ELEMENTWISE_METRICS:
        raise ValidationError(f"unknown elementwise metric {metric!r}")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    n, d = pts.shape
    out = np.empty((rows.size, n))
    step = max(1, BLOCK_BYTES // max(1, n * d * 8))
    for start in range(0, rows.size, step):
        diff = pts[rows[start:start + step], None, :] - pts[None, :, :]
        block = out[start:start + step]
        if metric == "manhattan":
            np.abs(diff, out=diff).sum(axis=2, out=block)
        else:
            np.multiply(diff, diff, out=diff).sum(axis=2, out=block)
            np.sqrt(block, out=block)
    return out


def distance_matrix(points, metric: str) -> np.ndarray:
    """Dense pairwise distances, float64, shape [N, N]."""
    pts = _as_points(points)
    if metric == "cosine_distance":
        norms = np.linalg.norm(pts, axis=1)
        bad = np.flatnonzero(norms == 0)
        if bad.size:
            raise ValidationError(
                f"cosine distance undefined for zero-norm row at index {bad[0]}"
            )
        unit = pts / norms[:, None]
        sim = np.clip(unit @ unit.T, -1.0, 1.0)
        dmat = 1.0 - sim
        np.fill_diagonal(dmat, 0.0)
        return dmat
    if metric in ELEMENTWISE_METRICS:
        return distance_rows(pts, np.arange(pts.shape[0]), metric)
    raise ValidationError(f"unknown metric {metric!r}")


def pair_distances(points, subset, metric: str) -> np.ndarray:
    """Distances over the unordered pairs of ``subset``, in ``np.triu_indices`` order.

    Elementwise metrics are computed one row of the upper triangle at a
    time, in O(len(subset) * d) memory.
    """
    idx = np.asarray(list(subset), dtype=np.int64)
    pts = _as_points(points)[idx]
    m = idx.size
    if m < 2:
        return np.empty(0)
    if metric == "cosine_distance":
        return distance_matrix(pts, metric)[np.triu_indices(m, k=1)]
    return np.concatenate(
        [distance_rows(pts[i:], [0], metric)[0, 1:] for i in range(m - 1)]
    )


def min_pairwise_distance(points, subset, metric: str) -> float:
    """Smallest pairwise distance within ``subset``; 0.0 below two points."""
    pairs = pair_distances(points, subset, metric)
    return float(pairs.min()) if pairs.size else 0.0


def sum_of_distances(points, subset, metric: str) -> float:
    """Sum over unordered pairs within ``subset``; 0.0 below two points."""
    return float(pair_distances(points, subset, metric).sum())


def _distance_row_source(pts: np.ndarray, metric: str):
    """Function from a point index to its float64 distance row."""
    if metric == "cosine_distance":
        # one GEMM matrix: per-row GEMVs are memory-bound and round differently
        return distance_matrix(pts, metric).__getitem__
    if metric not in ELEMENTWISE_METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    return lambda s: distance_rows(pts, [s], metric)[0]


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
) -> np.ndarray:
    """Greedy max-min dispersion over candidate vectors.

    Returns k candidate indices in selection order.  ``initial`` pins the
    first members (it may be any size up to k); otherwise the seed comes
    from ``seed_rule``: candidate 0, or the candidate farthest from the
    centroid under ``metric`` (lower index on ties).
    """
    pts = np.asarray(candidates, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError(f"candidates must be [N, d], got shape {pts.shape}")
    n = pts.shape[0]
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    row_of = _distance_row_source(pts, metric)

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
        centroid = pts.mean(axis=0)
        if metric == "manhattan":
            dist = np.abs(pts - centroid).sum(axis=1)
        elif metric == "euclidean":
            dist = np.linalg.norm(pts - centroid, axis=1)
        else:  # cosine_distance; zero rows were rejected by its distance matrix
            cnorm = np.linalg.norm(centroid)
            if cnorm == 0:
                raise ValidationError(
                    "cosine seed undefined: candidate centroid has zero norm"
                )
            unit = pts / np.linalg.norm(pts, axis=1)[:, None]
            dist = 1.0 - np.clip(unit @ (centroid / cnorm), -1.0, 1.0)
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
    row_of = _distance_row_source(grid_coordinates(grid_rows, grid_cols), metric)
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
