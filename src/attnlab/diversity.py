"""Head-diversity analytics on the gauge-invariant bilinear forms.

A head's attention logits are determined by A_h = Wq[h] (W_h^K)^T alone:
rotating Wq[h] and W_h^K by the same orthogonal matrix changes neither A_h
nor anything downstream. All similarity analysis therefore runs on the
A_h, never on raw projection factors.

The forms are d x d and never need to be materialized to compare them.
``bilinear_forms`` returns their factors as two (H, d, d_h) stacks, Wq and
each head's slice of the ``effective_weights`` expansion of K (V is never
built), and

    <A_i, A_j>_F = tr((W_i^K)^T W_j^K (W_j^Q)^T W_i^Q)

turns each inner product into two d_h x d_h products, which is how ``gram``
evaluates it, pair by pair (every j >= i): its working memory beyond G is
those two products and their elementwise product, whatever H is. Nothing
here forms an A_h; a cross-check can, as ``wq[h] @ wk[h].T``.

Spectral summaries follow the kernel-PCA recipe: scale the Gram to cosine
similarities (``cosine``, the one normalization, which reports a zero-norm
head rather than raising), double-center it, take the eigenvalues
(round-robin Jacobi), and report the exp-entropy effective rank — a smooth
count of independent directions the heads actually span around their mean.
Every Gram here is a plain (H, H) float64 array.

Reports are dicts (``spectrum``, ``diversity_report``, ``magnitude_report``,
``factorization_gap``'s rows); a result of several arrays is a tuple.
"""

from __future__ import annotations

import numpy as np

from .config import AttentionConfig, Mechanism, require_mechanism
from .errors import DimensionError, NumericalError, ParameterError
from .jacobi import jacobi_eigh
from .weights import WeightSet, effective_weights, gqa_group

# Eigenvalues of a PSD Gram this far below zero are roundoff; further is not.
EIGENVALUE_CLIP = -1e-10
CUMULATIVE_TARGET = 0.90


def _per_head(stack: np.ndarray, H: int) -> np.ndarray:
    """An expanded K or V stack with one slice per head: a shared or grouped
    stack's slices are gathered by ``gqa_group``."""
    if len(stack) == H:
        return stack
    return stack[gqa_group(np.arange(H), H, len(stack))]


def bilinear_forms(w: WeightSet, config: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each head's (Wq, effective W^K) factor pair, as two (H, d, d_h) stacks."""
    wk = _per_head(effective_weights(w, config, "k"), config.H)
    # head by head, so the boolean temporaries are one (d, d_h) head's
    for h in range(config.H):
        if not (np.isfinite(w.wq[h]).all() and np.isfinite(wk[h]).all()):
            raise NumericalError(f"non-finite projection factors at head {h}")
    return w.wq, wk


def gram(wq: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """Raw (H, H) Gram matrix of the head forms under the Frobenius inner
    product, from the factor stacks of ``bilinear_forms``."""
    H = len(wq)
    G = np.empty((H, H), dtype=np.float64)
    for i in range(H):
        for j in range(i, H):
            # Via the small side: two d_h x d_h products instead of d x d
            # forms, and tr(PQ) = sum(P * Q.T).
            P = wk[i].T @ wk[j]
            Q = wq[j].T @ wq[i]
            G[i, j] = G[j, i] = np.sum(P * Q.T)
    return G


def cosine(G: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Scale a raw Gram to cosine similarities s_ij in [-1, 1]; also
    return its zero-norm heads, whose unit denominators leave their
    rows/columns at the raw (zero) products."""
    norms = np.sqrt(np.clip(np.diag(G), 0.0, None))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return G / np.outer(safe, safe), tuple(int(h) for h in np.flatnonzero(zero))


def center_gram(G: np.ndarray) -> np.ndarray:
    """Double-center: subtract row and column means, add back the grand mean.

    Removes the heads' mean direction before spectral analysis, so the
    spectrum measures variance *around* the mean form. Idempotent.
    """
    row = G.mean(axis=1, keepdims=True)
    col = G.mean(axis=0, keepdims=True)
    grand = G.mean()
    return G - row - col + grand


def spectrum(G: np.ndarray) -> dict:
    """Eigenvalues, variance fractions, and exp-entropy effective rank.

    A dict of ``eigenvalues``, ``variance_fractions``, ``cumulative_variance``,
    ``effective_rank_abs``, ``effective_rank_pct`` (as a fraction of the head
    count), ``n_components_for_90pct`` and ``degenerate``: an all-zero
    spectrum reports effective rank 0 and no components, so identical heads
    read as "no variance around the mean" rather than as an error.

    Slightly negative eigenvalues (roundoff on a PSD matrix) are floored to
    zero; anything materially negative means the input was not a Gram
    matrix and raises NumericalError.
    """
    evals, _ = jacobi_eigh(G)
    if evals.size and float(evals.min()) < EIGENVALUE_CLIP:
        raise NumericalError(
            f"Gram spectrum has eigenvalue {evals.min():g} below {EIGENVALUE_CLIP:g}"
        )
    evals = np.clip(evals, 0.0, None)
    total = float(evals.sum())
    degenerate = total == 0.0
    v = evals / (total or 1.0)  # all zeros when degenerate
    pos = v[v > 0.0]
    eff = 0.0 if degenerate else float(np.exp(-np.sum(pos * np.log(pos))))
    cumulative = np.cumsum(v)
    n90 = 0 if degenerate else int(np.argmax(cumulative >= CUMULATIVE_TARGET - 1e-12)) + 1
    return {
        "eigenvalues": evals,
        "variance_fractions": v,
        "cumulative_variance": cumulative,
        "effective_rank_abs": eff,
        "effective_rank_pct": eff / max(evals.size, 1),
        "n_components_for_90pct": n90,
        "degenerate": degenerate,
    }


def diversity_report(w: WeightSet, config: AttentionConfig) -> dict:
    """Full similarity/spectrum summary for one layer's heads.

    Returns a dict with the cosine similarity matrix, the uncentered and
    centered ``spectrum`` dicts, and any degenerate (zero-form) heads.
    """
    sim, degenerate_heads = cosine(gram(*bilinear_forms(w, config)))
    return {
        "H": config.H,
        "similarity": sim,
        "uncentered": spectrum(sim),
        "centered": spectrum(center_gram(sim)),
        "degenerate_heads": degenerate_heads,
    }


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of an (H, m, n) stack, as float64, computed
    as ``np.linalg.norm`` does: the root of one dot over the flat matrix."""
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(flat, flat)).astype(np.float64)


def _magnitude_path(shared, us, bs):
    shared_norm = float(np.linalg.norm(shared))
    R = us @ bs.transpose(0, 2, 1)
    residual = _frobenius(R)
    total = _frobenius(shared + R)
    denom = shared_norm * residual
    alignment = np.divide(np.sum(shared * R, axis=(1, 2)), denom,
                          out=np.zeros(len(R)), where=denom != 0.0)
    return shared_norm, residual, total, np.clip(alignment, -1.0, 1.0)


def magnitude_report(w: WeightSet, config: AttentionConfig) -> dict:
    """Shared/residual/total norms and alignment, K and V paths separately.

    Per path p ("k", "v"): ``shared_p``, the base's Frobenius norm, and (H,)
    arrays ``residual_p``, ``total_p`` (base plus residual) and ``cosine_p``,
    the Frobenius cosine of base and residual (0.0 when either is zero).
    """
    require_mechanism(config, "magnitude_report", Mechanism.LRKV)
    sk, rk, tk, ck = _magnitude_path(w.wk_shared, w.uk, w.bk)
    sv, rv, tv, cv = _magnitude_path(w.wv_shared, w.uv, w.bv)
    return {"shared_k": sk, "residual_k": rk, "total_k": tk, "cosine_k": ck,
            "shared_v": sv, "residual_v": rv, "total_v": tv, "cosine_v": cv}


def svd_truncate(W: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Best rank-r factors of W and the optimal residual error.

    W is one d x d_h matrix or a (..., d, d_h) stack of them. Returns
    (U, B, err) with U (..., d, r) absorbing the singular values,
    B (..., d_h, r) orthonormal columns, U @ B.T the best rank-r Frobenius
    approximation, and err = sqrt(sum of the discarded singular values
    squared): a float for one matrix, a (...,) array for a stack. Computed
    from the symmetric eigendecomposition of W^T W, one ``jacobi_eigh`` call
    for the whole stack, so each member gets the bits of its own call.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2:
        raise DimensionError(f"W must be 2-D or a stack of 2-D matrices, got shape {W.shape}")
    d, d_h = W.shape[-2:]
    if not (0 <= r <= min(d, d_h)):
        raise ParameterError(
            f"rank {r} outside [0, {min(d, d_h)}] for a {d}x{d_h} matrix"
        )
    evals, V = jacobi_eigh(W.mT @ W)
    evals = np.clip(evals, 0.0, None)
    B = V[..., :r]
    U = W @ B
    err = np.sqrt(evals[..., r:].sum(axis=-1))
    return U, B, float(err) if W.ndim == 2 else err


def factorization_gap(
    w: WeightSet,
    config: AttentionConfig,
    reference: WeightSet,
    r: int | None = None,
) -> list[dict]:
    """How close each head's learned residual is to the rank-r optimum.

    ``reference`` supplies per-head target projections (independent K/V per
    head); ``w`` is a low-rank weight set over the same dims. Per head and
    path, reports the learned approximation error, the truncated-SVD
    optimum for the same shared base, and their ratio (>= 1 up to
    roundoff). The optima of both paths and every head come from one
    ``svd_truncate`` call on the (2H, d, d_h) stack of targets minus the
    shared base, K heads first, written into one buffer; rows come in that
    order. The learned errors are taken one path at a time, so at most one
    path's expansion and its difference from the targets are held beside it.
    """
    require_mechanism(config, "factorization_gap", Mechanism.LRKV)
    expected = (config.H, config.d, config.d_h)
    if reference.wk is None or reference.wv is None:
        raise ParameterError(
            "reference must carry independent per-head K/V projections "
            f"for H={config.H} heads"
        )
    if reference.wk.shape != expected or reference.wv.shape != expected:
        raise ParameterError(
            f"reference K/V stacks have shapes {reference.wk.shape} and "
            f"{reference.wv.shape}, expected {expected}"
        )
    if r is None:
        r = config.r
    H = config.H
    D = np.empty((2 * H, config.d, config.d_h), dtype=np.result_type(reference.wk, w.wk_shared))
    np.subtract(reference.wk, w.wk_shared, out=D[:H])
    np.subtract(reference.wv, w.wv_shared, out=D[H:])
    _, _, e_opt = svd_truncate(D, r)
    # Never subtract in place: the expansion may be a view of the weights
    # (LRKV at r = 0 and H = 1).
    e_learned = np.concatenate([
        _frobenius(target - _per_head(effective_weights(w, config, path), H))
        for target, path in ((reference.wk, "k"), (reference.wv, "v"))])
    eps = 1e-12 * np.maximum(1.0, _frobenius(D))
    rows: list[dict] = []
    for i, (learn, opt, tiny) in enumerate(zip(e_learned.tolist(), e_opt.tolist(), eps.tolist())):
        if opt < tiny:
            ratio = 1.0 if learn < tiny else float("inf")
        else:
            ratio = learn / opt
        rows.append({
            "head": i % H,
            "path": "kv"[i // H],
            "e_learned": learn,
            "e_opt": opt,
            "ratio": ratio,
        })
    return rows
