"""Decode-time KV caches and the two single-token decode paths.

Every mechanism caches the smallest sufficient statistic of the prefix:

    MHA   per-head K/V streams          (H, T, d_h) x 2
    MQA   one shared K/V stream         (T, d_h) x 2
    GQA   per-group K/V streams         (G, T, d_h) x 2
    MLA   one latent stream Z           (T, d_c)
    LRKV  shared K/V streams plus       (T, d_h) x 2
          per-head rank-r latents       (H, T, r) x 2

``STREAMS`` maps each cache field to the weight that projects a token into
it; a buffer has that weight's ``tensor_shapes`` shape with the model-width
(row) axis replaced by the capacity.

Two decode paths are provided. ``decode_explicit`` reconstructs each head's
full K/V over the cached prefix and runs ordinary attention — the reference
semantics. ``decode_factored`` (low-rank and latent mechanisms only) gets
identical logits and outputs without ever forming a (T, d_h) per-head
matrix, by pushing the query and the attention weights through the small
factors instead. The two paths are algebraically equal; floating point
leaves differences at the 1e-9 level (float64) for prefixes up to 4096.
A decode step that raises (say, on a non-finite token) sets the cache length
back, so the cache stays usable: the row it wrote lies past ``length``,
where no read sees it and the next append overwrites it.

Prefill and append run token rows through one shared projection helper, so
"prefill the whole prompt" and "append tokens one at a time" fill the cache
with bit-identical contents.

A process-wide allocation hook (``set_alloc_hook``) observes every transient
array the decode paths create, tagged by role. Tests use it to verify the
factored path's working set stays O(r + d_h) per head regardless of prefix
length; ``equivalence_report`` uses it to count elements touched per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import rmsnorm, softmax_row
from .config import AttentionConfig, Mechanism, RngSpec
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    NumericalError,
    UnsupportedMechanismError,
    UnsupportedModeError,
)
from .weights import (WeightSet, gqa_group, init_weights, kv_heads, residual_rank,
                      tensor_shapes)

_MASK64 = (1 << 64) - 1

# Cache field -> (weight that projects a token into it, alloc-hook tag of a row).
STREAMS = {
    "k": ("wk", "append.k_row"),
    "v": ("wv", "append.v_row"),
    "k_shared": ("wk_shared", "append.k_row"),
    "v_shared": ("wv_shared", "append.v_row"),
    "z": ("wdown", "append.z_row"),
    "rk": ("uk", "append.rk_row"),
    "rv": ("uv", "append.rv_row"),
}

AllocHook = Callable[[str, tuple], None]
_alloc_hook: AllocHook | None = None


def set_alloc_hook(fn: AllocHook | None) -> AllocHook | None:
    """Install ``fn(tag, shape)`` as the transient-allocation observer.

    Pass None to clear. Returns the previously installed hook so callers can
    restore it. The hook is observational only; it must not mutate anything.
    """
    global _alloc_hook
    prev = _alloc_hook
    _alloc_hook = fn
    return prev


def _note(tag: str, arr: np.ndarray) -> np.ndarray:
    """Report a freshly allocated transient to the hook; returns it unchanged."""
    if _alloc_hook is not None:
        _alloc_hook(tag, tuple(arr.shape))
    return arr


@dataclass
class DecodeCache:
    """Preallocated per-layer decode cache for one mechanism.

    Buffers are allocated once at ``capacity`` rows and filled up to
    ``length``; fields the mechanism has no stream for stay None. Single
    writer; reads between appends are safe.
    """

    config: AttentionConfig
    capacity: int
    length: int = 0
    k: np.ndarray | None = None         # (H, cap, d_h) MHA / (G, cap, d_h) GQA
    v: np.ndarray | None = None
    k_shared: np.ndarray | None = None  # (cap, d_h) MQA / LRKV
    v_shared: np.ndarray | None = None
    z: np.ndarray | None = None         # (cap, d_c) MLA
    rk: np.ndarray | None = None        # (H, cap, r) LRKV
    rv: np.ndarray | None = None

    def payload_elements(self) -> int:
        """Elements held by the cache buffers (at full capacity)."""
        buffers = (getattr(self, field) for field in STREAMS)
        return sum(buf.size for buf in buffers if buf is not None)

    def payload_nbytes(self) -> int:
        """Total bytes held by the cache buffers (at full capacity)."""
        return self.payload_elements() * self.dtype.itemsize

    @property
    def dtype(self):
        for field in STREAMS:
            buf = getattr(self, field)
            if buf is not None:
                return buf.dtype
        return np.dtype(np.float64)


@dataclass(frozen=True)
class DecodeStepOutput:
    """One decode step: per-head pre-softmax scores and attention outputs.

    ``logits`` is (H, t) where t is the cache length after the step's token
    was appended (scores over all cached positions, the new token included);
    ``out`` is (H, d_h).
    """

    logits: np.ndarray
    out: np.ndarray

    def concat_out(self) -> np.ndarray:
        """Head outputs concatenated in head order: shape (H * d_h,)."""
        return self.out.reshape(-1)


def empty_cache(config: AttentionConfig, capacity: int, dtype=np.float64) -> DecodeCache:
    """Allocate an all-zero cache with room for ``capacity`` tokens."""
    if capacity < 0:
        raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
    cache = DecodeCache(config=config, capacity=capacity)
    shapes = tensor_shapes(config)
    for field, (weight, _) in STREAMS.items():
        if weight in shapes:
            *heads, _, cols = shapes[weight]
            setattr(cache, field, np.zeros((*heads, capacity, cols), dtype=dtype))
    return cache


def append_token(
    cache: DecodeCache, w: WeightSet, config: AttentionConfig, x: np.ndarray
) -> DecodeCache:
    """Project one token and write its cache row(s); returns the same cache.

    This is the only code path that writes cache rows (prefill loops over
    it), so incremental and whole-prompt filling agree exactly. A stacked
    stream gets one matvec per head or group slice.
    """
    x = np.asarray(x)
    if x.shape != (config.d,):
        raise DimensionError(f"token must have shape ({config.d},), got {x.shape}")
    if cache.length >= cache.capacity:
        raise CapacityError(
            f"cache full: capacity {cache.capacity}, length {cache.length}"
        )
    t = cache.length
    for field, (weight, tag) in STREAMS.items():
        buf = getattr(cache, field)
        if buf is None:
            continue
        proj = getattr(w, weight)
        if buf.ndim == 2:
            buf[t] = _note(tag, x @ proj)
        else:
            for i in range(buf.shape[0]):
                buf[i, t] = _note(tag, x @ proj[i])
    cache.length = t + 1
    return cache


def prefill(
    w: WeightSet,
    config: AttentionConfig,
    X: np.ndarray,
    capacity: int | None = None,
    dtype=None,
) -> DecodeCache:
    """Build a cache for a whole prompt (row-by-row, see append_token).

    ``capacity`` defaults to exactly len(X); pass more to leave room for
    decode steps. ``dtype`` defaults to X's dtype.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != config.d:
        raise DimensionError(f"X must be (T, {config.d}), got shape {X.shape}")
    T = X.shape[0]
    if capacity is None:
        capacity = T
    if capacity < T:
        raise CapacityError(f"capacity {capacity} < prompt length {T}")
    cache = empty_cache(config, capacity, dtype=X.dtype if dtype is None else dtype)
    for i in range(T):
        append_token(cache, w, config, X[i])
    return cache


def _finalize(logits: np.ndarray, out: np.ndarray) -> DecodeStepOutput:
    if not (np.isfinite(logits).all() and np.isfinite(out).all()):
        raise NumericalError("decode produced non-finite logits or outputs")
    return DecodeStepOutput(logits=logits, out=out)


def decode_explicit(
    cache: DecodeCache, w: WeightSet, config: AttentionConfig, x: np.ndarray
) -> DecodeStepOutput:
    """Append x, then attend with fully materialized per-head K/V.

    Reference semantics for every mechanism: whatever the cache stores,
    each head's K and V over all cached positions are reconstructed as
    (t, d_h) matrices and ordinary scaled-dot-product attention runs on
    top. The new token attends to itself (standard causal decoding).
    """
    append_token(cache, w, config, x)
    t = cache.length
    try:
        scale = config.softmax_scale
        logits = np.empty((config.H, t), dtype=cache.dtype)
        out = np.empty((config.H, config.d_h), dtype=cache.dtype)
        for h in range(config.H):
            if config.mechanism is Mechanism.MLA:
                Z = cache.z[:t]
                K = _note("explicit.k_head", Z @ w.wup_k[h])
                V = _note("explicit.v_head", Z @ w.wup_v[h])
            elif residual_rank(config) > 0:
                K = _note("explicit.k_head",
                          cache.k_shared[:t] + cache.rk[h, :t] @ w.bk[h].T)
                V = _note("explicit.v_head",
                          cache.v_shared[:t] + cache.rv[h, :t] @ w.bv[h].T)
            elif cache.k is None:  # one shared K/V head: MQA, LRKV at r = 0
                K, V = cache.k_shared[:t], cache.v_shared[:t]
            else:  # per-group K/V streams: MHA (G = H), GQA
                g = gqa_group(h, config.H, kv_heads(config))
                K, V = cache.k[g, :t], cache.v[g, :t]
            q = _note("decode.query", x @ w.wq[h])
            if config.qk_norm:
                q = _note("explicit.q_norm", rmsnorm(q))
                K = _note("explicit.k_norm", rmsnorm(K))
            logits[h] = _note("decode.scores", (q @ K.T) * scale)
            a = _note("decode.weights", softmax_row(logits[h]))
            out[h] = _note("decode.out", a @ V)
        return _finalize(logits, out)
    except BaseException:
        cache.length = t - 1  # a failed step takes its row back (see module docstring)
        raise


def decode_factored(
    cache: DecodeCache, w: WeightSet, config: AttentionConfig, x: np.ndarray
) -> DecodeStepOutput:
    """Append x, then attend through the factors — no (t, d_h) per head.

    Low-rank mechanism: scores are the shared-stream dot product plus a
    rank-r correction routed through the cached latents,

        logits_h = scale * (q_h K_shared^T + (q_h B_h^K) Rk_h^T)
        out_h    = a_h V_shared + (a_h Rv_h) B_h^V^T

    Latent mechanism: the up-projections are folded into the query and the
    attention weights,

        logits_h = scale * ((q_h WupK_h^T) Z^T)
        out_h    = (a_h Z) WupV_h

    Both are exact rewrites of the explicit path. Only defined with
    qk_norm off (row normalization does not commute with the factors).
    """
    m = config.mechanism
    if m not in (Mechanism.LRKV, Mechanism.MLA):
        raise UnsupportedMechanismError(
            f"decode_factored requires lrkv or mla, got {m.value}"
        )
    if config.qk_norm:
        raise UnsupportedModeError("decode_factored is undefined with qk_norm on")
    append_token(cache, w, config, x)
    t = cache.length
    try:
        scale = config.softmax_scale
        logits = np.empty((config.H, t), dtype=cache.dtype)
        out = np.empty((config.H, config.d_h), dtype=cache.dtype)

        if m is Mechanism.MLA:
            Z = cache.z[:t]
            for h in range(config.H):
                q = _note("decode.query", x @ w.wq[h])
                q_lat = _note("factored.latent_query", q @ w.wup_k[h].T)
                logits[h] = _note("decode.scores", (Z @ q_lat) * scale)
                a = _note("decode.weights", softmax_row(logits[h]))
                az = _note("factored.latent_mix", a @ Z)
                out[h] = _note("decode.out", az @ w.wup_v[h])
            return _finalize(logits, out)

        Ks = cache.k_shared[:t]
        Vs = cache.v_shared[:t]
        for h in range(config.H):
            q = _note("decode.query", x @ w.wq[h])
            base = _note("factored.shared_scores", q @ Ks.T)
            if config.r == 0:
                logits[h] = _note("decode.scores", base * scale)
            else:
                qb = _note("factored.k_latent_query", q @ w.bk[h])
                corr = _note("factored.score_correction", cache.rk[h, :t] @ qb)
                logits[h] = _note("decode.scores", (base + corr) * scale)
            a = _note("decode.weights", softmax_row(logits[h]))
            base_out = _note("factored.shared_out", a @ Vs)
            if config.r == 0:
                out[h] = base_out
            else:
                av = _note("factored.v_latent_mix", a @ cache.rv[h, :t])
                out[h] = _note("decode.out", base_out + av @ w.bv[h].T)
        return _finalize(logits, out)
    except BaseException:
        cache.length = t - 1
        raise


class _ElemCounter:
    """Alloc-hook that sums elements of every reported transient."""

    def __init__(self) -> None:
        self.total = 0

    def __call__(self, tag: str, shape: tuple) -> None:
        n = 1
        for s in shape:
            n *= int(s)
        self.total += n

    def take(self) -> int:
        out, self.total = self.total, 0
        return out


def equivalence_report(
    config: AttentionConfig,
    seed: RngSpec,
    T: int,
    trials: int,
    dtype=np.float64,
) -> list[dict]:
    """Decode a fresh random sequence through both paths; report agreement.

    Each trial draws new weights and inputs (deterministically from
    ``seed``), decodes T tokens step by step, and records the maximum
    absolute logit/output discrepancy between the explicit and factored
    paths, plus the total transient elements each path touched (as counted
    by the allocation hook). Mechanisms without a factored path get
    explicit-only rows with the factored columns set to None.

    Returns one dict per trial, ready for CSV emission.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    has_factored = config.mechanism in (Mechanism.LRKV, Mechanism.MLA)
    rows: list[dict] = []
    counter = _ElemCounter()
    prev_hook = set_alloc_hook(counter)
    try:
        for trial in range(trials):
            trial_seed = (seed.seed + trial) & _MASK64
            w = init_weights(config, RngSpec(seed=trial_seed))
            data_gen = np.random.Generator(np.random.PCG64(trial_seed).jumped())
            X = data_gen.standard_normal((T, config.d))
            if dtype is not np.float64:
                w = w.astype(dtype)
                X = X.astype(dtype)
            cache_e = empty_cache(config, T, dtype=dtype)
            cache_f = empty_cache(config, T, dtype=dtype) if has_factored else None
            max_logit = 0.0
            max_out = 0.0
            explicit_elems = 0
            factored_elems = 0
            counter.take()
            for i in range(T):
                step_e = decode_explicit(cache_e, w, config, X[i])
                explicit_elems += counter.take()
                if has_factored:
                    step_f = decode_factored(cache_f, w, config, X[i])
                    factored_elems += counter.take()
                    max_logit = max(
                        max_logit, float(np.abs(step_e.logits - step_f.logits).max())
                    )
                    max_out = max(
                        max_out, float(np.abs(step_e.out - step_f.out).max())
                    )
            rows.append({
                "trial": trial,
                "mechanism": config.mechanism.value,
                "T": T,
                "dtype": np.dtype(dtype).name,
                "max_logit_diff": max_logit if has_factored else None,
                "max_out_diff": max_out if has_factored else None,
                "explicit_elems_touched": explicit_elems,
                "factored_elems_touched": factored_elems if has_factored else None,
            })
    finally:
        set_alloc_hook(prev_hook)
    return rows
