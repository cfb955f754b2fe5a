"""Attention-derived importance scores and position-rebalanced top-k.

Importance of an image token is the attention it receives from prompt text,
read off the last prompt position's softmaxed attention row.  Scores are
plain float64 vectors over the image segment, one entry per image token.
They feed the rebalanced top-k selector, which counteracts the positional
skew of causal attention (late image tokens absorb more attention mass than
early ones).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .trace import TokenLayout


def check_attention_row_shape(shape: tuple[int, ...], layout: TokenLayout) -> None:
    """Reject an attention row shape ``importance_last_token`` cannot score."""
    if len(shape) not in (1, 2):
        raise ValidationError(f"attention row must be 1-D or [heads, seq], got {shape}")
    if shape[-1] != layout.total():
        raise ValidationError(
            f"last-token attention row: row length {shape[-1]} != sequence length {layout.total()}"
        )


def importance_last_token(attn_row, layout: TokenLayout, layer: int = 0) -> np.ndarray:
    """Float64 [n_image] importance from the last prompt position's attention row.

    ``attn_row`` is that position's softmaxed attention over the whole
    sequence, either head-averaged ([seq]) or per-head ([heads, seq]); a
    per-head input is averaged over heads here.  "Last" means the final
    prompt position regardless of segment, since generation is conditioned
    on exactly that position's state.  ``layer`` names the row in errors.
    """
    row = np.asarray(attn_row)
    check_attention_row_shape(row.shape, layout)
    if row.ndim == 2:
        row = row.mean(axis=0)
    if np.any(row < 0):
        raise ValidationError("last-token attention row: negative entries, expected softmaxed rows")
    if row.sum() == 0:  # no softmax gives an all-zero row
        raise ValidationError(f"layer {layer}: last-token attention row sums to 0, not softmaxed")
    scores = row.astype(np.float64)[layout.image_slice]
    # worded as StageInputs words it, so a NaN in a trace's attention row
    # reads the same whichever check meets it first
    if not np.isfinite(scores).all():
        raise ValidationError(f"layer {layer}: stage scores contain non-finite values")
    return scores


def rebalanced_topk(scores, k: int, k_prime: int | None = None) -> np.ndarray:
    """Positionally rebalanced top-k over a score vector of length N.

    An over-selected pool of the ``k_prime`` highest scores (descending,
    lower index on ties) is split at position floor(N/2): pool members from
    the early half are taken first, then pool members from the late half
    fill the remaining budget, preserving pool (score) order.  If the early
    half alone covers the budget the result is its first k members.  With
    ``k_prime == k`` this is a plain top-k as a set.  Default
    ``k_prime = min(2k, N)``.
    """
    vec = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = vec.size
    if not 0 < k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    if k_prime is None:
        k_prime = min(2 * k, n)
    if not k <= k_prime <= n:
        raise ValidationError(f"k_prime must be in [{k}, {n}], got {k_prime}")

    order = np.lexsort((np.arange(n), -vec))
    pool = order[:k_prime]
    split = n // 2
    pre = pool[pool < split]
    if pre.size >= k:
        return pre[:k].astype(np.int64)
    post = pool[pool >= split]
    return np.concatenate([pre, post[: k - pre.size]]).astype(np.int64)
