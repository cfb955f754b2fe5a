"""Greedy max-min dispersion, the grid skeleton, and the exhaustive reference."""

import math
import tracemalloc

import numpy as np
import pytest

from btp import diversity
from btp.diversity import (
    DiversityConfig,
    ZeroNormRow,
    brute_force_maxmin,
    distance_matrix,
    distance_rows,
    greedy_maxmin,
    min_pairwise_distance,
    pair_distances,
    spatial_init,
    sum_of_distances,
    unit_rows,
)
from btp.errors import ValidationError

METRICS = ("manhattan", "euclidean", "cosine_distance")


# ---------------------------------------------------------------------------
# dense reference: the [N, N, d] implementation the row-on-demand code
# replaced, kept as the oracle it must match bit for bit


def _dense_distance_matrix(points, metric):
    pts = np.asarray(points, dtype=np.float64)
    if metric == "manhattan":
        return np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    if metric == "euclidean":
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))
    norms = np.linalg.norm(pts, axis=1)
    unit = pts / norms[:, None]
    dmat = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(dmat, 0.0)
    return dmat


def _dense_greedy_extend(dmat, k, initial):
    n = dmat.shape[0]
    selected = list(initial)
    min_dist = np.full(n, np.inf)
    for s in selected:
        np.minimum(min_dist, dmat[s], out=min_dist)
        min_dist[s] = -np.inf
    while len(selected) < k:
        pick = int(np.argmax(min_dist))
        selected.append(pick)
        np.minimum(min_dist, dmat[pick], out=min_dist)
        min_dist[pick] = -np.inf
    return selected


def _dense_greedy_maxmin(pts, k, metric, initial, seed_rule):
    dmat = _dense_distance_matrix(pts, metric)
    if initial:
        seed = list(initial)
    elif seed_rule == "spatial_first_point":
        seed = [0]
    else:
        centroid = pts.mean(axis=0)
        if metric == "manhattan":
            dist = np.abs(pts - centroid).sum(axis=1)
        elif metric == "euclidean":
            dist = np.linalg.norm(pts - centroid, axis=1)
        else:
            unit = pts / np.linalg.norm(pts, axis=1)[:, None]
            dist = 1.0 - np.clip(unit @ (centroid / np.linalg.norm(centroid)), -1.0, 1.0)
        seed = [int(np.argmax(dist))]
    return np.asarray(_dense_greedy_extend(dmat, k, seed), dtype=np.int64)


def _corpus():
    """Seeded point sets: gaussian at several widths, plus tie-heavy integer grids."""
    rng = np.random.default_rng(2024)
    sets = []
    for n, d in ((2, 1), (7, 2), (12, 3), (25, 8), (40, 17), (30, 130), (16, 300)):
        sets.append(rng.standard_normal((n, d)))
    for n, d in ((20, 2), (30, 3), (24, 9)):
        # small integer coordinates repeat distances everywhere; the +1 keeps
        # every row away from zero norm for cosine
        sets.append(rng.integers(0, 3, size=(n, d)).astype(np.float64) + 1.0)
    return rng, sets


def _dense_distance_rows(pts, centres, metric):
    diff = np.asarray(centres)[:, None, :] - pts[None, :, :]
    if metric == "manhattan":
        return np.abs(diff).sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


def test_distance_rows_match_dense_reference():
    rng, sets = _corpus()
    for pts in sets:
        # two points of the set, its centroid, and a point outside it
        centres = np.stack([
            pts[-1], pts[0], pts.mean(axis=0), rng.standard_normal(pts.shape[1]) + 10.0
        ])
        for metric in ("manhattan", "euclidean"):
            dense = _dense_distance_matrix(pts, metric)
            assert np.array_equal(distance_matrix(pts, metric), dense)
            want = _dense_distance_rows(pts, centres, metric)
            for centre, row in zip(centres, want):
                got = distance_rows(pts, centre, metric)
                assert got.shape == (len(pts),) and np.array_equal(got, row)
            # one [d] centre only: the points themselves as centres would
            # broadcast into a silently wrong row
            for bad in (centres, pts, centres[:1], np.ones(pts.shape[1] + 1)):
                with pytest.raises(ValidationError, match="centre must be"):
                    distance_rows(pts, bad, metric)
        assert np.array_equal(
            distance_matrix(pts, "cosine_distance"), _dense_distance_matrix(pts, "cosine_distance")
        )
    with pytest.raises(ValidationError):
        distance_rows(np.ones((2, 2)), np.ones(2), "cosine_distance")


def test_greedy_matches_dense_reference():
    rng, sets = _corpus()
    for pts in sets:
        n = pts.shape[0]
        for metric in METRICS:
            for k in sorted({1, 2, max(1, n // 3), n}):
                for rule in ("spatial_first_point", "farthest_from_centroid"):
                    want = _dense_greedy_maxmin(pts, k, metric, None, rule)
                    got = greedy_maxmin(pts, k, metric, seed_rule=rule)
                    assert np.array_equal(got, want), (pts.shape, metric, k, rule)
                size = int(rng.integers(1, k + 1))
                initial = [int(i) for i in rng.choice(n, size=size, replace=False)]
                want = _dense_greedy_maxmin(pts, k, metric, initial, None)
                assert np.array_equal(greedy_maxmin(pts, k, metric, initial=initial), want)


def test_spatial_init_matches_dense_reference():
    for rows, cols in ((1, 1), (1, 5), (3, 5), (4, 4), (6, 9), (12, 12)):
        r, c = np.divmod(np.arange(rows * cols), cols)
        coords = np.stack([r, c], axis=1).astype(np.float64)
        for metric in ("manhattan", "euclidean"):
            dmat = _dense_distance_matrix(coords, metric)
            n = rows * cols
            for k in sorted({1, min(2, n), min(3, n), (n + 1) // 2, n}):
                want = _dense_greedy_extend(dmat, k, [0])
                assert np.array_equal(spatial_init(rows, cols, k, metric), want)


def test_subset_statistics_match_dense_reference():
    rng, sets = _corpus()
    for pts in sets:
        n = pts.shape[0]
        for metric in METRICS:
            for size in sorted({2, min(3, n), n}):
                subset = rng.choice(n, size=size, replace=False)
                dense = _dense_distance_matrix(pts[subset], metric)
                want = dense[np.triu_indices(size, k=1)]
                assert np.array_equal(pair_distances(pts, subset, metric), want)
                assert min_pairwise_distance(pts, subset, metric) == float(want.min())
                assert sum_of_distances(pts, subset, metric) == float(want.sum())


# ---------------------------------------------------------------------------
# distances


def test_distance_matrix_hand_values():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(distance_matrix(pts, "manhattan"), [[0, 2], [2, 0]])
    np.testing.assert_allclose(
        distance_matrix(pts, "euclidean"), [[0, math.sqrt(2)], [math.sqrt(2), 0]]
    )
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    dmat = distance_matrix(axes, "cosine_distance")
    assert dmat[0, 1] == pytest.approx(1.0)
    assert dmat[0, 2] == pytest.approx(2.0)
    np.testing.assert_array_equal(np.diag(dmat), [0, 0, 0])


def test_distance_matrix_validation():
    with pytest.raises(ValidationError):
        distance_matrix(np.ones(3), "euclidean")
    with pytest.raises(ValidationError):
        distance_matrix(np.ones((2, 2)), "chebyshev")
    with pytest.raises(ValidationError, match="zero-norm"):
        distance_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]), "cosine_distance")


# ---------------------------------------------------------------------------
# blocked unit rows

UNIT_BLOCK_ROWS_AT_64 = diversity.UNIT_BLOCK_BYTES // (64 * 8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("indexed", [False, True], ids=["all-rows", "indexed"])
@pytest.mark.parametrize("n,d", [
    (1, 64),
    (UNIT_BLOCK_ROWS_AT_64 - 1, 64),
    (UNIT_BLOCK_ROWS_AT_64, 64),
    (UNIT_BLOCK_ROWS_AT_64 + 1, 64),
    # one row is wider than a block, so every block holds one row
    (3, diversity.UNIT_BLOCK_BYTES // 8 + 1),
])
def test_unit_rows_match_reference_bitwise(dtype, indexed, n, d):
    rng = np.random.default_rng([n, d])
    # row scales over six decades, so the norms round in many ways
    src = rng.standard_normal((n + 3, d)) * 10.0 ** rng.uniform(-3, 3, size=(n + 3, 1))
    src = src.astype(dtype)
    index = rng.permutation(n + 3)[:n] if indexed else None
    pts = np.asarray(src if index is None else src[index], dtype=np.float64)
    want = pts / np.linalg.norm(pts, axis=1)[:, None]
    got = unit_rows(src, index)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_unit_rows_zero_norm_names_the_row_of_points():
    src = np.ones((5, 3), dtype=np.float32)
    src[3] = 0.0
    with pytest.raises(ZeroNormRow) as info:
        unit_rows(src)
    assert info.value.row == 3
    with pytest.raises(ZeroNormRow) as info:
        unit_rows(src, [4, 0, 3])  # row 3 of the points, not position 2
    assert info.value.row == 3
    assert str(info.value) == "cosine distance undefined for zero-norm row at index 3"
    np.testing.assert_array_equal(unit_rows(src, [4, 0]), np.full((2, 3), 1 / math.sqrt(3)))
    with pytest.raises(ValidationError, match=r"points must be \[N, d\]"):
        unit_rows(np.ones(3))


def test_subset_statistics():
    pts = np.array([[0.0], [1.0], [3.0]])
    assert min_pairwise_distance(pts, [0, 1, 2], "euclidean") == pytest.approx(1.0)
    assert sum_of_distances(pts, [0, 1, 2], "euclidean") == pytest.approx(6.0)
    assert min_pairwise_distance(pts, [2], "euclidean") == 0.0
    assert sum_of_distances(pts, [], "euclidean") == 0.0


# ---------------------------------------------------------------------------
# greedy max-min


def test_greedy_on_a_line():
    pts = np.array([[0.0], [10.0], [1.0], [9.0]])
    # centroid is 5.0; points 0 and 1 tie at distance 5, lower index seeds
    np.testing.assert_array_equal(greedy_maxmin(pts, 2, "euclidean"), [0, 1])
    np.testing.assert_array_equal(greedy_maxmin(pts, 3, "euclidean"), [0, 1, 2])


def test_greedy_initial_is_prefix():
    pts = np.array([[0.0], [10.0], [1.0], [9.0]])
    got = greedy_maxmin(pts, 3, "euclidean", initial=[2])
    assert got[0] == 2
    np.testing.assert_array_equal(greedy_maxmin(pts, 2, "euclidean", initial=[2, 0]), [2, 0])


def test_greedy_initial_validation():
    pts = np.zeros((4, 2)) + np.arange(4)[:, None]
    with pytest.raises(ValidationError):
        greedy_maxmin(pts, 2, "euclidean", initial=[1, 1])
    with pytest.raises(ValidationError):
        greedy_maxmin(pts, 2, "euclidean", initial=[4])
    with pytest.raises(ValidationError):
        greedy_maxmin(pts, 2, "euclidean", initial=[0, 1, 2])


def test_greedy_seed_rules():
    pts = np.array([[0.0], [10.0], [4.0]])
    assert greedy_maxmin(pts, 1, "euclidean", seed_rule="spatial_first_point")[0] == 0
    assert greedy_maxmin(pts, 1, "euclidean", seed_rule="farthest_from_centroid")[0] == 1
    with pytest.raises(ValidationError):
        greedy_maxmin(pts, 1, "euclidean", seed_rule="random")


def test_greedy_cosine_zero_centroid_rejected():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError, match="centroid"):
        greedy_maxmin(pts, 1, "cosine_distance")


def test_greedy_permutation_equivariance():
    """Relabeling candidates relabels the selection the same way."""
    rng = np.random.default_rng(10)
    for _ in range(10):
        pts = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        sel = greedy_maxmin(pts, 5, "euclidean")
        sel_perm = greedy_maxmin(pts[perm], 5, "euclidean")
        np.testing.assert_array_equal(perm[sel_perm], sel)


def test_greedy_rigid_motion_invariance():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((10, 2))
    base = greedy_maxmin(pts, 4, "euclidean")
    np.testing.assert_array_equal(greedy_maxmin(pts + 3.7, 4, "euclidean"), base)
    np.testing.assert_array_equal(greedy_maxmin(pts * 0.25, 4, "euclidean"), base)


def test_greedy_within_half_of_optimum():
    # triangle-inequality metrics guarantee the greedy min distance is at
    # least half the exhaustive optimum
    rng = np.random.default_rng(12)
    for metric in ("euclidean", "manhattan"):
        for _ in range(10):
            n = int(rng.integers(6, 11))
            k = int(rng.integers(2, 5))
            pts = rng.standard_normal((n, 3))
            opt, _ = brute_force_maxmin(pts, k, metric)
            got = min_pairwise_distance(pts, greedy_maxmin(pts, k, metric), metric)
            assert got >= 0.5 * opt - 1e-12


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_greedy_memory_bounded_at_paper_width(metric):
    # a dense [N, N, d] float64 difference tensor would be about 10.9 GB here
    pts = np.random.default_rng(14).standard_normal((576, 4096))
    tracemalloc.start()
    try:
        sel = greedy_maxmin(pts, 16, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.unique(sel).size == 16
    assert peak < 64 * 2**20


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("rule", ["spatial_first_point", "farthest_from_centroid"])
def test_greedy_rows_match_indexed_candidates(metric, rule):
    rng = np.random.default_rng(15)
    src = rng.standard_normal((40, 9)).astype(np.float32)
    rows = np.sort(rng.choice(40, size=25, replace=False))
    for k in (1, 7, 25):
        want = greedy_maxmin(src[rows], k, metric, seed_rule=rule)
        got = greedy_maxmin(src, k, metric, seed_rule=rule, rows=rows)
        np.testing.assert_array_equal(got, want)
        got = greedy_maxmin(src, k, metric, initial=[3], rows=rows)
        np.testing.assert_array_equal(got, greedy_maxmin(src[rows], k, metric, initial=[3]))


def test_greedy_cosine_copies_the_candidates_once():
    # float32 hidden rows in, one float64 unit-row matrix plus the Gram out:
    # no float32 gather and no raw float64 copy of the candidates
    src = np.random.default_rng(16).standard_normal((700, 4096)).astype(np.float32)
    rows = np.arange(100, 700)
    n = rows.size
    tracemalloc.start()
    try:
        sel = greedy_maxmin(src, 16, "cosine_distance", seed_rule="spatial_first_point", rows=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.unique(sel).size == 16
    assert peak < n * 4096 * 8 + n * n * 8 + 2**20


def test_greedy_bounds():
    pts = np.ones((3, 2))
    with pytest.raises(ValidationError):
        greedy_maxmin(pts, 0, "euclidean")
    with pytest.raises(ValidationError):
        greedy_maxmin(pts, 4, "euclidean")
    with pytest.raises(ValidationError):
        greedy_maxmin(np.zeros((0, 2)), 1, "euclidean")


# ---------------------------------------------------------------------------
# grid skeleton


def test_spatial_init_two_by_two():
    np.testing.assert_array_equal(spatial_init(2, 2, 2), [0, 3])
    np.testing.assert_array_equal(spatial_init(2, 2, 4), [0, 3, 1, 2])


def test_spatial_init_single_row():
    np.testing.assert_array_equal(spatial_init(1, 5, 2), [0, 4])
    np.testing.assert_array_equal(spatial_init(1, 5, 3), [0, 4, 2])


def test_spatial_init_four_by_four():
    np.testing.assert_array_equal(spatial_init(4, 4, 4, "manhattan"), [0, 15, 3, 9])


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
@pytest.mark.parametrize("rows,cols,ks", [
    (24, 24, (1, 2, 3, 5, 18, 72, 144, 575, 576)),
    (4, 4, tuple(range(1, 17))),
    (3, 5, tuple(range(1, 16))),
])
def test_spatial_init_prefix_property(rows, cols, ks, metric):
    full = spatial_init(rows, cols, rows * cols, metric)
    np.testing.assert_array_equal(np.sort(full), np.arange(rows * cols))
    for k in ks:
        np.testing.assert_array_equal(spatial_init(rows, cols, k, metric), full[:k])


def test_spatial_init_deterministic_per_shape():
    np.testing.assert_array_equal(
        spatial_init(3, 4, 5, "euclidean"), spatial_init(3, 4, 5, "euclidean")
    )


def test_spatial_init_validation():
    with pytest.raises(ValidationError):
        spatial_init(0, 3, 1)
    with pytest.raises(ValidationError):
        spatial_init(2, 2, 5)
    with pytest.raises(ValidationError):
        spatial_init(2, 2, 2, "cosine_distance")


# ---------------------------------------------------------------------------
# exhaustive reference


def test_brute_force_singleton_and_ties():
    sq = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert brute_force_maxmin(sq, 1, "euclidean") == (math.inf, (0,))
    val, subset = brute_force_maxmin(sq, 2, "euclidean")
    assert val == pytest.approx(math.sqrt(2))
    assert subset == (0, 3)  # both diagonals tie; lexicographically smaller wins


def test_brute_force_guard_refuses_large_instances():
    pts = np.zeros((20, 2))
    with pytest.raises(ValidationError, match="guard"):
        brute_force_maxmin(pts, 10, "euclidean", guard=1000)


def test_brute_force_bounds():
    pts = np.ones((3, 2))
    for bad in (np.ones(3), np.ones((3, 2, 1)), np.zeros((0, 2))):
        with pytest.raises(ValidationError, match="candidates must be"):
            brute_force_maxmin(bad, 1, "euclidean")
    for k in (0, 4):
        with pytest.raises(ValidationError, match=rf"k must be in \[1, 3\], got {k}"):
            brute_force_maxmin(pts, k, "euclidean")


def test_greedy_never_beats_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(10):
        pts = rng.standard_normal((8, 2))
        k = int(rng.integers(2, 5))
        opt, _ = brute_force_maxmin(pts, k, "euclidean")
        got = min_pairwise_distance(pts, greedy_maxmin(pts, k, "euclidean"), "euclidean")
        assert got <= opt + 1e-12


# ---------------------------------------------------------------------------
# config


def test_diversity_config_defaults_and_validation():
    cfg = DiversityConfig()
    assert cfg.spatial_metric == "manhattan"
    assert cfg.semantic_metric == "cosine_distance"
    assert cfg.seed_rule == "farthest_from_centroid"
    with pytest.raises(ValidationError):
        DiversityConfig(spatial_metric="cosine_distance")
    with pytest.raises(ValidationError):
        DiversityConfig(semantic_metric="manhattan")
    with pytest.raises(ValidationError):
        DiversityConfig(seed_rule="first")
