"""Decode-time KV caches and the two single-token decode paths.

Every mechanism caches the smallest sufficient statistic of the prefix:

    MHA   wk, wv                per-head K/V              (H, T, d_h) x 2
    MQA   wk_shared, wv_shared  one shared K/V            (T, d_h) x 2
    GQA   wk, wv                per-group K/V             (G, T, d_h) x 2
    MLA   wdown                 one latent Z              (T, d_c)
    LRKV  wk_shared, wv_shared  shared K/V plus           (T, d_h) x 2
          uk, uv                per-head rank-r latents   (H, T, r) x 2

A stream is named by the weight that projects a token into it (``STREAMS``).
``DecodeCache.streams`` maps each of the config's stream weights to its
buffer, in ``tensor_shapes`` order; a buffer has that weight's shape with the
model-width (row) axis replaced by the rows it holds.

A cache of ``capacity`` tokens holding n of them has buffers of
rows(n) = min(capacity, 2**ceil(log2 n)) rows, and none at n = 0. An append
that outgrows them allocates the next size, copies the held rows over and
swaps the new buffers in once its own rows are written and screened, so a
short prompt in a roomy cache zeroes about the rows it writes, not the
whole capacity, and growth zeroes at most twice the rows written. Every
buffer starts on a ``weights.ALIGNMENT`` boundary and has a floating-point
dtype.

Two decode paths are provided. ``decode_explicit`` reconstructs each head's
full K/V over the cached prefix and runs ordinary attention — the reference
semantics. It expands the cached rows with ``effective_weights``, K and V
one call each, the expansion that also gives the K/V weights: a stream's rows
are X times its weight, so their expansion is X times the expanded weight.
``decode_factored`` (low-rank and latent mechanisms only) gets identical
logits and outputs without ever forming a (T, d_h) per-head matrix, by
pushing the query and the attention weights through the small factors
instead. The two paths are algebraically equal; floating point leaves
differences at the 1e-9 level (float64) for prefixes up to 4096.

Both paths batch the heads: the step's queries are one (H, d_h) block, and
each cached stream (a K/V group, the shared K/V, Z, the stacked latents) is
read by one matmul per step for all the heads that use it, not once per
head. The heads' softmaxes are one ``softmax_row`` over (H, t) logits.

Held rows past ``length`` are zero, as in a fresh cache. A decode step
that raises (say, on logits that overflow) sets the cache back: ``length``
returns, the rows it wrote are zeroed, and buffers its append grew are
swapped back for the ones it outgrew, so the cache is bit for bit what it
was, buffer shapes included. A token with a NaN or infinite entry is
rejected before any row is written; a finite token whose projected rows
overflow the cache dtype is rejected the same way a failed step is.

Prefill and append write rows through one projection helper: ``append_token``
passes its token as a one-row block, ``prefill`` the whole (T, d) prompt. Each
stream's rows are one broadcast matmul, ``(X[:, None, :] @ W[..., None, :, :])``,
written straight into the cache buffer. numpy runs it as one gemv per row with
the head (or group) axis outermost, so a (d, cols) weight slice is read from
memory once per block and from cache for every row after the first. Each row
equals the token's own ``x @ W`` bit for bit, so "prefill the whole prompt"
and "append tokens one at a time" fill the cache with bit-identical contents
by construction. A GEMM (``X @ W``) would be faster still, but it accumulates
in another order and does not match.

A process-wide allocation hook (``set_alloc_hook``) observes every transient
array the decode paths create, tagged by role: one event per array, with
the array's real shape. A step's scores are one (H, t) event, the explicit
path's reconstructed keys one (H, t, d_h) event, and the rows a prefill or
append writes one (..., T, cols) event per stream. Tests use it to verify
that the factored path builds only (H, k) transients with k in {t, r, d_h}
(d_c for the latent mechanism), never a (t, d_h) matrix per head;
``equivalence_report`` sums the elements of the events to count elements
touched per step. The hook sees the arrays the code names, not numpy's
temporaries; a tracemalloc test measures the real peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import rmsnorm, softmax_row
from .config import AttentionConfig, Mechanism, RngSpec, require_int, require_mechanism
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    NumericalError,
    UnsupportedModeError,
)
from .weights import (
    WeightSet,
    aligned_empty,
    effective_weights,
    init_weights,
    tensor_shapes,
)

_MASK64 = (1 << 64) - 1

# The mechanisms with a factored decode path.
FACTORED = (Mechanism.LRKV, Mechanism.MLA)

# The weights that project a token into a cached stream; the alloc-hook tag
# of a stream's rows is ``append.<weight>``.
STREAMS = ("wk", "wv", "wk_shared", "wv_shared", "wdown", "uk", "uv")

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


def _note(tag: str, a: np.ndarray) -> np.ndarray:
    """Report transient ``a`` to the hook, once, with its real shape."""
    if _alloc_hook is not None:
        _alloc_hook(tag, a.shape)
    return a


@dataclass
class DecodeCache:
    """Per-layer decode cache for one mechanism, grown as tokens arrive.

    ``streams`` maps each stream weight of the mechanism to its buffer,
    filled up to ``length``. The cache takes up to ``capacity`` tokens; its
    buffers hold only rows(length) rows of them (see the module docstring).
    Single writer; reads between appends are safe.
    """

    streams: dict[str, np.ndarray]  # e.g. "wk": (H, rows, d_h), "wdown": (rows, d_c)
    capacity: int
    length: int = 0

    def payload_elements(self) -> int:
        """Elements the cache buffers hold at full capacity."""
        return sum(self.capacity * math.prod(buf.shape[:-2]) * buf.shape[-1]
                   for buf in self.streams.values())

    def payload_nbytes(self) -> int:
        """Total bytes the cache buffers hold at full capacity."""
        return self.payload_elements() * self.dtype.itemsize

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.streams.values())).dtype


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


def _zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An all-zero, ALIGNMENT-aligned cache buffer: the one cache allocator."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ConfigurationError(f"cache dtype must be floating point, got {dtype}")
    return aligned_empty(shape, dtype, alloc=np.zeros)


def empty_cache(config: AttentionConfig, capacity: int, dtype=np.float64) -> DecodeCache:
    """An empty cache with room for ``capacity`` tokens; it holds no rows yet."""
    capacity = require_int("capacity", capacity, 0)
    return DecodeCache(streams={
        name: _zeros((*heads, 0, cols), dtype)
        for name, (*heads, _, cols) in tensor_shapes(config).items() if name in STREAMS
    }, capacity=capacity)


def _append_rows(
    cache: DecodeCache, w: WeightSet, X: np.ndarray
) -> DecodeCache:
    """Project the (T, d) token block X and write its rows at ``cache.length``.

    The only code path that writes cache rows (see the module docstring).
    Each stream's rows are projected straight into the cache, past
    ``length``, and checked before ``length`` advances: a block with a
    non-finite entry is rejected before anything is written, and a block
    that fails later (rows that overflow the cache dtype) has its rows
    zeroed again, so either way the cache is left as it was. A block that
    outgrows the held rows is written into grown buffers, which replace the
    held ones only once it has passed.
    """
    t, T = cache.length, X.shape[0]
    if t + T > cache.capacity:
        raise CapacityError(
            f"cache full: capacity {cache.capacity}, length {t}, {T} new rows"
        )
    # vdot(X, X), one BLAS call, is finite unless an entry is non-finite or a
    # square overflows; only then is the slower elementwise test needed. The
    # row sums below screen the same way for rows that overflow.
    if not math.isfinite(np.vdot(X, X)) and not np.isfinite(X).all():
        raise NumericalError("token has non-finite entries")
    held = streams = cache.streams
    if t + T > next(iter(held.values())).shape[-2]:
        n = min(cache.capacity, 1 << (t + T - 1).bit_length())  # rows(t + T)
        streams = {}
        for name, buf in held.items():
            streams[name] = grown = _zeros((*buf.shape[:-2], n, buf.shape[-1]), buf.dtype)
            grown[..., :t, :] = buf[..., :t, :]
    X = X[:, None, :]  # (T, 1, d): one gemv per row (see the module docstring)
    screen = 0.0
    try:
        for name, buf in streams.items():
            rows = buf[..., t:t + T, None, :]
            np.matmul(X, getattr(w, name)[..., None, :, :], out=rows)
            if _alloc_hook is not None:  # no view on the unhooked hot path
                _note(f"append.{name}", buf[..., t:t + T, :])
            screen += np.add.reduce(rows, None)
        if not math.isfinite(screen) and not all(
            np.isfinite(buf[..., t:t + T, :]).all() for buf in streams.values()
        ):
            raise NumericalError("token rows overflow the cache dtype")
    except BaseException:
        _truncate(cache, held, t)
        raise
    cache.streams, cache.length = streams, t + T
    return cache


def _truncate(cache: DecodeCache, streams: dict[str, np.ndarray], length: int) -> None:
    """Set the cache back to the buffers ``streams``, ``length`` rows long,
    with every held row past ``length`` zeroed."""
    for buf in streams.values():
        buf[..., length:, :] = 0
    cache.streams, cache.length = streams, length


def append_token(
    cache: DecodeCache, w: WeightSet, config: AttentionConfig, x: np.ndarray
) -> DecodeCache:
    """Project one token and write its cache row(s); returns the same cache.

    A token whose rows would not be finite in the cache dtype is rejected
    and leaves the cache as it was.
    """
    x = np.asarray(x)
    if x.shape != (config.d,):
        raise DimensionError(f"token must have shape ({config.d},), got {x.shape}")
    return _append_rows(cache, w, x[None])


def prefill(
    w: WeightSet,
    config: AttentionConfig,
    X: np.ndarray,
    capacity: int | None = None,
    dtype=None,
) -> DecodeCache:
    """Build a cache for a whole prompt, bit-identical to T ``append_token`` calls.

    The prompt is one block through the projection helper: no per-token
    loop, one broadcast matmul per stream (see the module docstring). A
    prompt with any token that ``append_token`` would reject is rejected
    whole. ``capacity`` defaults to exactly len(X); pass more to leave room
    for decode steps. ``dtype`` defaults to X's dtype and must be floating
    point.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != config.d:
        raise DimensionError(f"X must be (T, {config.d}), got shape {X.shape}")
    T = X.shape[0]
    capacity = T if capacity is None else require_int("capacity", capacity, 0)
    if capacity < T:
        raise CapacityError(f"capacity {capacity} < prompt length {T}")
    cache = empty_cache(config, capacity, dtype=X.dtype if dtype is None else dtype)
    return _append_rows(cache, w, X)


def _finalize(logits: np.ndarray, out: np.ndarray) -> DecodeStepOutput:
    """Check a step's (H, t) logits and (H, d_h) outputs; outputs take the
    logits' dtype, which is the cache's."""
    # The same screen as for tokens: sums of squares are finite unless an
    # entry is non-finite or a square overflows.
    if not math.isfinite(np.vdot(logits, logits) + np.vdot(out, out)) and not (
        np.isfinite(logits).all() and np.isfinite(out).all()
    ):
        raise NumericalError("decode produced non-finite logits or outputs")
    return DecodeStepOutput(logits=logits, out=out.astype(logits.dtype, copy=False))


def _scaled(scores: np.ndarray, config: AttentionConfig, cache: DecodeCache) -> np.ndarray:
    """Scaled (H, t) logits in the cache's dtype, which the softmax then keeps."""
    scores *= config.softmax_scale  # a fresh array: scaled in place
    return scores.astype(cache.dtype, copy=False)


def _rowwise(rows: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Row h of ``rows`` times matrix h of ``stack``: (H, m) x (H, m, n) -> (H, n)."""
    return (rows[:, None, :] @ stack)[:, 0]


def decode_explicit(
    cache: DecodeCache, w: WeightSet, config: AttentionConfig, x: np.ndarray
) -> DecodeStepOutput:
    """Append x, then attend with fully materialized per-head K/V.

    Reference semantics for every mechanism: whatever the cache stores,
    each head's K and V over all cached positions are reconstructed as
    (t, d_h) matrices and ordinary scaled-dot-product attention runs on
    top. The new token attends to itself (standard causal decoding).
    Heads sharing a K/V head are one (H/n, d_h) query block against it;
    ``gqa_group`` gives each K/V head a contiguous block of heads.
    """
    held = cache.streams
    append_token(cache, w, config, x)
    t = cache.length
    try:
        H, d_h = config.H, config.d_h
        K, V = (effective_weights(w, config, path,
                                  lambda name: cache.streams[name][..., :t, :])
                for path in "kv")
        if K.base is None:  # reconstructed, not views of the cache: MLA, LRKV at r > 0
            K, V = _note("explicit.k_head", K), _note("explicit.v_head", V)
        n = K.shape[0]
        Q = _note("decode.query", x @ w.wq)
        if config.qk_norm:
            Q = _note("explicit.q_norm", rmsnorm(Q))
            K = _note("explicit.k_norm", rmsnorm(K))
        scores = (Q.reshape(n, H // n, d_h) @ K.transpose(0, 2, 1)).reshape(H, t)
        logits = _note("decode.scores", _scaled(scores, config, cache))
        A = _note("decode.weights", softmax_row(logits))
        out = _note("decode.out", (A.reshape(n, H // n, t) @ V).reshape(H, d_h))
        return _finalize(logits, out)
    except BaseException:
        _truncate(cache, held, t - 1)  # a failed step takes its row back (see module docstring)
        raise


def decode_factored(
    cache: DecodeCache, w: WeightSet, config: AttentionConfig, x: np.ndarray
) -> DecodeStepOutput:
    """Append x, then attend through the factors — no (t, d_h) per head.

    Low-rank mechanism: scores are the shared-stream dot product plus a
    rank-r correction routed through the cached latents (empty at r = 0),

        logits_h = scale * (q_h K_shared^T + (q_h B_h^K) Rk_h^T)
        out_h    = a_h V_shared + (a_h Rv_h) B_h^V^T

    Latent mechanism: the up-projections are folded into the query and the
    attention weights,

        logits_h = scale * ((q_h WupK_h^T) Z^T)
        out_h    = (a_h Z) WupV_h

    Both are exact rewrites of the explicit path. Only defined with
    qk_norm off (row normalization does not commute with the factors).
    Each line runs for all heads at once: the (H, d_h) query block reads
    K_shared, V_shared or Z once per step.
    """
    require_mechanism(config, "decode_factored", *FACTORED)
    if config.qk_norm:
        raise UnsupportedModeError("decode_factored is undefined with qk_norm on")
    held = cache.streams
    append_token(cache, w, config, x)
    t = cache.length
    try:
        Q = _note("decode.query", x @ w.wq)

        if config.mechanism is Mechanism.MLA:
            Z = cache.streams["wdown"][:t]
            q_lat = _note("factored.latent_query",
                          _rowwise(Q, w.wup_k.transpose(0, 2, 1)))
            logits = _note("decode.scores", _scaled(q_lat @ Z.T, config, cache))
            A = _note("decode.weights", softmax_row(logits))
            az = _note("factored.latent_mix", A @ Z)
            out = _note("decode.out", _rowwise(az, w.wup_v))
            return _finalize(logits, out)

        base = _note("factored.shared_scores", Q @ cache.streams["wk_shared"][:t].T)
        qb = _note("factored.k_latent_query", _rowwise(Q, w.bk))
        corr = _note("factored.score_correction",
                     (cache.streams["uk"][:, :t] @ qb[:, :, None])[:, :, 0])
        logits = _note("decode.scores", _scaled(base + corr, config, cache))
        A = _note("decode.weights", softmax_row(logits))
        base_out = _note("factored.shared_out", A @ cache.streams["wv_shared"][:t])
        av = _note("factored.v_latent_mix", _rowwise(A, cache.streams["uv"][:, :t]))
        out = _note("decode.out", base_out + _rowwise(av, w.bv.transpose(0, 2, 1)))
        return _finalize(logits, out)
    except BaseException:
        _truncate(cache, held, t - 1)
        raise


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
    T, trials = require_int("T", T, 1), require_int("trials", trials, 1)
    has_factored = config.mechanism in FACTORED
    rows: list[dict] = []
    shapes: list[tuple] = []
    prev_hook = set_alloc_hook(lambda tag, shape: shapes.append(shape))

    def touched() -> int:
        """Elements of the transients reported since the last call."""
        n = sum(map(math.prod, shapes))
        shapes.clear()
        return n

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
            for i in range(T):
                step_e = decode_explicit(cache_e, w, config, X[i])
                explicit_elems += touched()
                if has_factored:
                    step_f = decode_factored(cache_f, w, config, X[i])
                    factored_elems += touched()
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
