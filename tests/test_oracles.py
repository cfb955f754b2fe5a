"""Self-check suites: each must report its documented verdict."""

import numpy as np
import pytest

from btp.errors import ValidationError
from btp.oracles import (
    SuiteReport,
    mmdp_suite,
    orthonormal_value_instance,
    roundtrip_suite,
    single_layer_suite,
    spatial_grid_exactness,
    unequal_norm_counterexample,
)
from btp.toymodel import single_layer_optimality_check

# the seeded greedy grid skeleton provably misses the exhaustive max-min
# optimum on exactly these small-grid instances (all k=3: after taking the
# two opposite corners, every cell's corner distances sum to a constant,
# capping the third pick at half the corner-free optimum)
KNOWN_GRID_MISSES = [
    "grid 2x3 k=3 manhattan: greedy 1.0, optimum 2.0",
    "grid 2x3 k=3 euclidean: greedy 1.0, optimum 1.4142135623730951",
    "grid 3x2 k=3 manhattan: greedy 1.0, optimum 2.0",
    "grid 3x2 k=3 euclidean: greedy 1.0, optimum 1.4142135623730951",
    "grid 3x4 k=3 manhattan: greedy 2.0, optimum 3.0",
    "grid 3x4 k=3 euclidean: greedy 2.0, optimum 2.23606797749979",
    "grid 4x3 k=3 manhattan: greedy 2.0, optimum 3.0",
    "grid 4x3 k=3 euclidean: greedy 2.0, optimum 2.23606797749979",
    "grid 4x4 k=3 manhattan: greedy 3.0, optimum 4.0",
]


def test_suite_report_formatting():
    report = SuiteReport("demo")
    report.add("first", True, "detail")
    report.add("second", False)
    assert not report.ok
    assert report.failures == ["second"]
    assert report.lines() == [
        "[ok] first: detail",
        "[FAIL] second",
        "demo: 1/2 checks passed",
    ]


def test_mmdp_suite_passes():
    report = mmdp_suite(instances=25)
    assert report.ok, report.failures


def test_single_layer_suite_passes():
    report = single_layer_suite(instances=10)
    assert report.ok, report.failures


def test_roundtrip_suite_passes(tmp_path):
    report = roundtrip_suite(instances=20, base_dir=tmp_path)
    assert report.ok, report.failures


def test_grid_skeleton_misses_are_exactly_the_known_ones():
    assert spatial_grid_exactness() == KNOWN_GRID_MISSES


def test_grid_skeleton_exact_away_from_k3():
    misses = spatial_grid_exactness()
    assert all(" k=3 " in m for m in misses)


def test_orthonormal_instance_has_orthonormal_values():
    rng = np.random.default_rng(40)
    record = orthonormal_value_instance(rng, n_image=6, d=9, scale=2.0)
    v = record.values[0][record.layout.image_slice].astype(np.float64)
    gram = v @ v.T
    np.testing.assert_allclose(gram, 4.0 * np.eye(6), atol=1e-6)
    with pytest.raises(ValueError):
        orthonormal_value_instance(rng, n_image=6, d=4)


def test_counterexample_shows_strict_gap():
    record, k = unequal_norm_counterexample()
    err_topk, err_best = single_layer_optimality_check(record, layer=0, k=k)
    assert err_topk > err_best * 1.5


def test_suites_reject_sizes_they_cannot_draw():
    # the CLI checks mmdp's bounds and every instance count; single_layer
    # draws 4..max_n tokens, and its max_n has no flag
    with pytest.raises(ValidationError, match="max_n must be >= 4, got 3"):
        single_layer_suite(max_n=3)
    assert single_layer_suite(instances=2, max_n=4).ok
    assert mmdp_suite(instances=2, max_n=6, max_k=2).ok
