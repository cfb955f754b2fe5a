"""Last-token importance scores and the position-rebalanced top-k."""

import re

import numpy as np
import pytest

from btp.errors import ValidationError
from btp.scoring import importance_last_token, rebalanced_topk
from btp.trace import TensorBlob, TokenLayout


def _layout(n_system=1, n_image=4, n_text=2, rows=2, cols=2):
    return TokenLayout(
        n_system=n_system, n_image=n_image, n_text=n_text, grid_rows=rows, grid_cols=cols
    )


def _softmax_rows(rng, m, seq):
    raw = rng.random((m, seq)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# importance estimators


def test_scores_must_be_nonnegative_and_nonempty():
    lay = _layout()
    row = np.full(lay.total(), 0.1)
    row[lay.n_system + 1] = -0.2
    with pytest.raises(ValidationError, match="negative entries"):
        importance_last_token(row, lay)
    # importance_last_token cannot return an empty vector: a layout has at
    # least one image token; rebalanced_topk takes no empty one either
    with pytest.raises(ValidationError, match="grid 1x1 does not cover 0"):
        _layout(n_image=0, rows=1, cols=1)
    with pytest.raises(ValidationError, match=re.escape("k must be in [1, 0]")):
        rebalanced_topk(np.array([]), 1)


@pytest.mark.parametrize("bad,message", [
    (np.nan, "layer 2: stage scores contain non-finite values"),
    (np.inf, "layer 2: stage scores contain non-finite values"),
    # below zero before it is infinite
    (-np.inf, "negative entries"),
], ids=["nan", "inf", "-inf"])
def test_scores_must_be_finite(bad, message):
    lay = _layout()
    row = np.full(lay.total(), 0.1)
    row[lay.n_system] = bad
    with pytest.raises(ValidationError, match=message):
        importance_last_token(row, lay, layer=2)


def test_scores_reject_an_all_zero_row():
    lay = _layout()
    for row in (np.zeros(lay.total()), np.zeros((3, lay.total()), dtype=np.float32)):
        with pytest.raises(ValidationError,
                           match="layer 4: last-token attention row sums to 0, not softmaxed"):
            importance_last_token(row, lay, layer=4)
    # one zero head among softmaxed ones is a softmaxed mean
    heads = np.zeros((2, lay.total()))
    heads[1, lay.n_system] = 1.0
    np.testing.assert_array_equal(importance_last_token(heads, lay), [0.5, 0, 0, 0])


def test_last_token_slices_image_segment():
    lay = _layout()
    row = np.array([0.1, 0.2, 0.05, 0.15, 0.1, 0.25, 0.15])
    got = importance_last_token(row, lay, layer=3)
    assert got.dtype == np.float64 and got.shape == (4,)
    np.testing.assert_allclose(got, [0.2, 0.05, 0.15, 0.1])


def test_last_token_averages_heads():
    lay = _layout()
    rng = np.random.default_rng(0)
    per_head = _softmax_rows(rng, 3, lay.total())
    got = importance_last_token(per_head, lay)
    np.testing.assert_allclose(got, per_head.mean(axis=0)[lay.image_slice])


def test_last_token_accepts_blob_input():
    lay = _layout()
    row = np.full(lay.total(), 1.0 / lay.total(), dtype=np.float32)
    blob = TensorBlob.from_array("attn_l0", row)
    got = importance_last_token(blob.view(), lay)
    assert got.dtype == np.float64 and got.shape == (4,)


def test_last_token_rejects_bad_rows():
    lay = _layout()
    with pytest.raises(ValidationError):
        importance_last_token(np.zeros(5), lay)  # wrong sequence length
    bad = np.full(lay.total(), 0.2)
    bad[0] = -0.2
    with pytest.raises(ValidationError):
        importance_last_token(bad, lay)
    with pytest.raises(ValidationError):
        importance_last_token(np.zeros((2, 2, lay.total())), lay)


# ---------------------------------------------------------------------------
# rebalanced top-k


def test_rebalanced_worked_case():
    scores = np.array([0.05, 0.8, 0.3, 0.02, 0.01, 0.04, 0.9, 0.5])
    # pool of the 4 best is [6, 1, 7, 2]; early half first, then index 6
    np.testing.assert_array_equal(rebalanced_topk(scores, 3, k_prime=4), [1, 2, 6])


def test_rebalanced_early_half_can_cover_budget():
    scores = np.array([9.0, 8.0, 7.0, 6.0, 1.0, 2.0, 0.5, 0.1])
    np.testing.assert_array_equal(rebalanced_topk(scores, 2, k_prime=4), [0, 1])


def test_rebalanced_with_tight_pool_is_plain_topk():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(4, 41))
        k = int(rng.integers(1, n + 1))
        scores = rng.random(n)
        got = rebalanced_topk(scores, k, k_prime=k)
        plain = np.lexsort((np.arange(n), -scores))[:k]
        assert set(got.tolist()) == set(plain.tolist())


def test_rebalanced_default_pool_at_half_budget_keeps_early_half():
    # k' defaults to min(2k, N); at k = N/2 the pool is every index, so the
    # early half always covers the budget no matter what the scores say
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = rng.random(10)
        got = rebalanced_topk(scores, 5)
        assert set(got.tolist()) == {0, 1, 2, 3, 4}


def test_rebalanced_picks_come_from_pool():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(1, n + 1))
        k_prime = int(rng.integers(k, n + 1))
        scores = rng.random(n)
        pool = set(np.lexsort((np.arange(n), -scores))[:k_prime].tolist())
        got = rebalanced_topk(scores, k, k_prime=k_prime)
        assert len(got) == k and len(set(got.tolist())) == k
        assert set(got.tolist()) <= pool


def test_rebalanced_invariant_under_positive_scaling():
    rng = np.random.default_rng(7)
    scores = rng.random(17)
    a = rebalanced_topk(scores, 6, k_prime=10)
    b = rebalanced_topk(scores * 37.5, 6, k_prime=10)
    np.testing.assert_array_equal(a, b)


def test_rebalanced_ties_prefer_lower_index():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    np.testing.assert_array_equal(rebalanced_topk(scores, 2, k_prime=2), [0, 1])


def test_rebalanced_accepts_importance_scores():
    lay = _layout()
    row = np.array([0.1, 0.1, 0.9, 0.2, 0.3, 0.2, 0.2])
    got = rebalanced_topk(importance_last_token(row, lay), 2, k_prime=2)
    assert set(got.tolist()) == {1, 3}
    # any sequence of numbers does as well
    assert set(rebalanced_topk([0.1, 0.9, 0.2, 0.3], 2, k_prime=2).tolist()) == {1, 3}


def test_rebalanced_bounds():
    scores = np.arange(6, dtype=float)
    with pytest.raises(ValidationError):
        rebalanced_topk(scores, 0)
    with pytest.raises(ValidationError):
        rebalanced_topk(scores, 7)
    with pytest.raises(ValidationError):
        rebalanced_topk(scores, 3, k_prime=2)
    with pytest.raises(ValidationError):
        rebalanced_topk(scores, 3, k_prime=7)
