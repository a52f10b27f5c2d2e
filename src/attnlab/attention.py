"""Causal multi-head attention forward pass, mechanism-agnostic.

The forward pass never branches on the mechanism: it asks
``effective_weights`` for the K and the V weight stacks, projects the whole
sequence for all heads at once and runs standard scaled-dot-product
attention on top, one row of every head's scores per step. Heads are
concatenated in head order; there is no output projection and no biases.

``softmax_row`` is the one softmax in the package. Decode paths reuse it so
that a probability computed during decode is bit-identical to the same
probability computed during a full forward pass, given identical inputs.
"""

from __future__ import annotations

import numpy as np

from .config import AttentionConfig
from .errors import DimensionError
from .weights import WeightSet, effective_weights

RMSNORM_EPS = 1e-6


def rmsnorm(x: np.ndarray) -> np.ndarray:
    """Root-mean-square normalization along the last axis (no learned gain)."""
    x = np.asarray(x)
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(ms + RMSNORM_EPS)


def softmax_row(scores: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis of a score array.

    A 1-D vector is one row; an (H, t) array is H rows, e.g. one per head of
    a decode step, and each row comes out bit-identical to its 1-D softmax.
    Max-subtracted; the normalizer is accumulated in float64 regardless of
    the working dtype, then the result is cast back. The ufunc reductions
    skip ``np.max``'s and ``ndarray.sum``'s Python wrappers and compute the
    same bits. The exponentials overwrite the one fresh array, and in
    float64 so does the quotient (a mixed-dtype divide into a narrower
    array measured slower than the cast).
    """
    e = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(e, out=e)
    denom = np.add.reduce(e, axis=-1, keepdims=True, dtype=np.float64)
    if e.dtype == denom.dtype:
        return np.divide(e, denom, out=e)
    return (e / denom).astype(scores.dtype, copy=False)


def forward_attention(
    w: WeightSet, config: AttentionConfig, X: np.ndarray
) -> np.ndarray:
    """Full causal attention over a sequence.

    X is (T, d); the result is (T, d) with head outputs concatenated in head
    order. Position i attends to positions 0..i. With ``config.qk_norm`` the
    query and key rows are RMS-normalized before the dot product. Scores are
    one (T, T) product per head, held for all heads at once: (H, T, T).
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-D (T, d), got shape {X.shape}")
    T, d = X.shape
    if d != config.d:
        raise DimensionError(f"X has width {d}, config.d={config.d}")
    H, d_h = config.H, config.d_h
    Q = X @ w.wq  # (H, T, d_h)
    # head h reads gqa_group(h, H, n); each weight stack is freed once projected
    K, V = (X @ effective_weights(w, config, path) for path in "kv")
    n = K.shape[0]
    if config.qk_norm:
        Q = rmsnorm(Q)
        K = rmsnorm(K)
    scores = (Q.reshape(n, H // n, T, d_h) @ K.transpose(0, 2, 1)[:, None]).reshape(H, T, T)
    scores *= config.softmax_scale
    out = np.empty((T, H, d_h), dtype=X.dtype)
    for i in range(T):
        A = softmax_row(scores[:, i, : i + 1])
        out[i] = (A.reshape(n, H // n, 1, i + 1) @ V[:, None, : i + 1]).reshape(H, d_h)
    return out.reshape(T, H * d_h)
