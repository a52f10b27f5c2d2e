import math
import tracemalloc

import numpy as np
import pytest

from attnlab import (
    Mechanism,
    RngSpec,
    decode_explicit,
    decode_factored,
    gqa_group,
    init_weights,
    prefill,
    set_alloc_hook,
)


def _per_head_kv(w, config, h):
    """Head h's (d, d_h) K/V projections by the per-head formulas, one head
    at a time: the reference for the stacked K/V expansion."""
    if config.mechanism is Mechanism.MLA:
        return w.wdown @ w.wup_k[h], w.wdown @ w.wup_v[h]
    if config.mechanism is Mechanism.LRKV and config.r > 0:
        return w.wk_shared + w.uk[h] @ w.bk[h].T, w.wv_shared + w.uv[h] @ w.bv[h].T
    if w.wk is None:
        return w.wk_shared, w.wv_shared
    g = gqa_group(h, config.H, len(w.wk))
    return w.wk[g], w.wv[g]


def _traced_peak(fn, *args):
    """``fn(*args)`` and the bytes its call allocated at its peak, above
    what was allocated when it started, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def per_head_kv():
    return _per_head_kv


def _per_head_projection_grad(w, config, X, dK, path):
    """LRKV projection gradients by the per-head formulas, one head at a time,
    with the shared base's total summed by a ``+=`` loop in head order: the
    reference for the stacked ``projection_backward``."""
    U, B = (w.uk, w.bk) if path == "k" else (w.uv, w.bv)
    dWshared = np.zeros((config.d, config.d_h))
    dU, dB = [], []
    for h in range(config.H):
        dWshared += X.T @ dK[h]
        dU.append(X.T @ (dK[h] @ B[h]))
        dB.append(dK[h].T @ (X @ U[h]))
    return dWshared, np.stack(dU), np.stack(dB)


@pytest.fixture
def per_head_projection_grad():
    return _per_head_projection_grad


def _flops_per_element(tag, config, t, path):
    """Multiply+add count behind one element of a noted transient, in the
    closed form's convention: the logit scale and the adds that join two
    partial results (shared plus residual, ``base + corr``) cost nothing."""
    c = config
    mla = c.mechanism is Mechanism.MLA
    lift = 2 * (c.d_c if mla else c.r)  # one latent (mla) or residual (lrkv) lift
    if path == "factored":  # lrkv's scores only join base + corr
        scores, out = (lift if mla else 0), lift
    else:
        scores, out = 2 * c.d_h, 2 * t
    if tag.startswith("append."):
        return 2 * c.d  # a row of x @ W
    return {
        "decode.query": 2 * c.d,
        "explicit.k_head": lift,
        "explicit.v_head": lift,
        "decode.scores": scores,
        "decode.weights": 5,
        "decode.out": out,
        "factored.latent_query": 2 * c.d_h,
        "factored.latent_mix": 2 * t,
        "factored.shared_scores": 2 * c.d_h,
        "factored.k_latent_query": 2 * c.d_h,
        "factored.score_correction": 2 * c.r,
        "factored.shared_out": 2 * t,
        "factored.v_latent_mix": 2 * t,
    }[tag]


def _instrumented_step_flops(config, T, path):
    """FLOPs of one real decode step at length T, tallied from the alloc
    hook's events: each event costs its elements times the per-element
    count of the op that made it, whatever its (H, ...) or (..., T, cols)
    shape."""
    w = init_weights(config, RngSpec(seed=0))
    X = np.random.default_rng(1).standard_normal((T, config.d))
    cache = prefill(w, config, X[:-1], capacity=T)
    events = []
    prev = set_alloc_hook(lambda tag, shape: events.append((tag, shape)))
    try:
        fn = decode_factored if path == "factored" else decode_explicit
        fn(cache, w, config, X[-1])
    finally:
        set_alloc_hook(prev)
    t = cache.length
    return sum(_flops_per_element(tag, config, t, path) * math.prod(shape)
               for tag, shape in events)


@pytest.fixture
def instrumented_step_flops():
    return _instrumented_step_flops
