import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from attnlab import (
    AttentionConfig,
    DimensionError,
    Mechanism,
    RngSpec,
    decode_explicit,
    forward_attention,
    init_weights,
    prefill,
    rmsnorm,
    softmax_row,
)


def cfg(mechanism, **kw):
    base = dict(d=48, H=3, d_h=16)
    base.update(kw)
    return AttentionConfig(mechanism=mechanism, **base)


ALL_CONFIGS = [
    cfg(Mechanism.MHA),
    cfg(Mechanism.MQA),
    cfg(Mechanism.GQA, G=3),
    cfg(Mechanism.MLA, d_c=10),
    cfg(Mechanism.LRKV, r=5),
    cfg(Mechanism.LRKV, r=0),
]


def test_softmax_row_normalizes():
    p = softmax_row(np.array([0.1, -2.0, 3.3]))
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert (p > 0).all()


def test_softmax_row_is_shift_stable():
    x = np.array([1e4, 1e4 + 1.0, 1e4 - 2.0])
    p = softmax_row(x)
    q = softmax_row(x - 1e4)
    assert np.isfinite(p).all()
    assert np.allclose(p, q, atol=1e-15)


def test_softmax_row_preserves_dtype():
    p = softmax_row(np.array([0.0, 1.0], dtype=np.float32))
    assert p.dtype == np.float32


@given(hnp.arrays(np.float64, st.integers(1, 12),
                  elements=st.floats(-50, 50)))
def test_softmax_row_commutes_with_permutation(x):
    perm = np.argsort(x)  # an arbitrary but data-derived permutation
    assert np.allclose(softmax_row(x)[perm], softmax_row(x[perm]), atol=1e-12)


def test_rmsnorm_unit_rms():
    x = np.random.default_rng(0).standard_normal((5, 8)) * 3.0
    y = rmsnorm(x)
    rms = np.sqrt(np.mean(y * y, axis=-1))
    assert np.allclose(rms, 1.0, atol=1e-6)
    assert np.isfinite(rmsnorm(np.zeros(8))).all()


@pytest.mark.parametrize("shape, message", [
    ((48,), r"X must be 2-D \(T, d\), got shape \(48,\)"),
    ((5, 47), "X has width 47, config.d=48"),
], ids=["1-D", "width"])
def test_forward_rejects_a_malformed_sequence(shape, message):
    config = ALL_CONFIGS[0]
    with pytest.raises(DimensionError, match=message):
        forward_attention(init_weights(config, RngSpec(seed=0)), config, np.zeros(shape))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: f"{c.mechanism.value}-r{c.r}")
def test_forward_shape_and_finiteness(config):
    w = init_weights(config, RngSpec(seed=0))
    X = np.random.default_rng(1).standard_normal((7, config.d))
    Y = forward_attention(w, config, X)
    assert Y.shape == (7, config.H * config.d_h)
    assert np.isfinite(Y).all()


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: f"{c.mechanism.value}-r{c.r}")
def test_forward_is_causal(config):
    w = init_weights(config, RngSpec(seed=3))
    gen = np.random.default_rng(4)
    X = gen.standard_normal((6, config.d))
    Y = forward_attention(w, config, X)
    X2 = X.copy()
    X2[4:] = gen.standard_normal((2, config.d))
    Y2 = forward_attention(w, config, X2)
    assert np.array_equal(Y[:4], Y2[:4])
    assert not np.allclose(Y[4:], Y2[4:])


def test_first_row_attends_only_to_itself():
    config = cfg(Mechanism.MHA)
    w = init_weights(config, RngSpec(seed=5))
    X = np.random.default_rng(6).standard_normal((3, config.d))
    Y = forward_attention(w, config, X)
    expected = np.concatenate([X[0] @ w.wv[h] for h in range(config.H)])
    assert np.allclose(Y[0], expected, atol=1e-12)


def test_qk_norm_changes_output_but_stays_finite():
    base = cfg(Mechanism.MHA)
    normed = cfg(Mechanism.MHA, qk_norm=True)
    w = init_weights(base, RngSpec(seed=7))
    X = np.random.default_rng(8).standard_normal((5, base.d))
    Y = forward_attention(w, base, X)
    Yn = forward_attention(w, normed, X)
    assert np.isfinite(Yn).all()
    assert not np.allclose(Y, Yn)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_row_of_a_stack_is_the_softmax_of_each_row(dtype):
    scores = (np.random.default_rng(2).standard_normal((5, 300)) * 8).astype(dtype)
    scores[1, :] = 3.0  # a tie across the whole row
    stacked = softmax_row(scores)
    assert stacked.dtype == dtype and stacked.shape == scores.shape
    for h in range(scores.shape[0]):
        assert softmax_row(scores[h]).tobytes() == stacked[h].tobytes(), h


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
@pytest.mark.parametrize("shape", [(7,), (6, 129)], ids=["row", "stack"])
def test_softmax_row_keeps_the_bits_of_the_plain_formula(shape, dtype):
    """The reference: max, exp of the shifted scores, a float64 sum and a
    divide, spelled with numpy's wrappers and fresh arrays."""
    scores = (np.random.default_rng(3).standard_normal(shape) * 6).astype(dtype)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    want = (e / e.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(dtype)
    got = softmax_row(scores)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


# Decode shapes ALL_CONFIGS leaves out: GQA with two, three and sixteen heads
# per group (scored per head up to ``cache.GEMV_ROWS``, by one GEMM past it),
# and qk_norm on for every mechanism.
DECODE_CONFIGS = [
    cfg(Mechanism.GQA, d=64, H=4, G=2),
    cfg(Mechanism.GQA, d=48, H=6, d_h=8, G=2),
    cfg(Mechanism.GQA, d=256, H=32, d_h=8, G=2),
    cfg(Mechanism.MHA, qk_norm=True),
    cfg(Mechanism.MQA, qk_norm=True),
    cfg(Mechanism.GQA, d=64, H=4, G=2, qk_norm=True),
    cfg(Mechanism.MLA, d_c=10, qk_norm=True),
    cfg(Mechanism.LRKV, r=5, qk_norm=True),
]


@pytest.mark.parametrize("config", DECODE_CONFIGS,
                         ids=lambda c: f"{c.mechanism.value}-H{c.H}-qk{int(c.qk_norm)}")
def test_forward_agrees_with_incremental_decode_beyond_all_configs(config):
    test_forward_agrees_with_incremental_decode(config)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: f"{c.mechanism.value}-r{c.r}")
def test_forward_agrees_with_incremental_decode(config):
    """Whole-sequence attention and step-by-step decoding tell one story."""
    T = 9
    w = init_weights(config, RngSpec(seed=11))
    X = np.random.default_rng(12).standard_normal((T, config.d))
    Y = forward_attention(w, config, X)
    cache = prefill(w, config, X[:0], capacity=T)
    for i in range(T):
        step = decode_explicit(cache, w, config, X[i])
        assert np.allclose(step.concat_out(), Y[i], rtol=0, atol=1e-9), f"row {i}"


def _forward_per_head(w, config, X, per_head_kv):
    """Reference forward pass: one head at a time, one softmax row at a time."""
    T = X.shape[0]
    out = np.empty((T, config.H * config.d_h), dtype=X.dtype)
    for h in range(config.H):
        wk, wv = per_head_kv(w, config, h)
        Q, K, V = X @ w.wq[h], X @ wk, X @ wv
        if config.qk_norm:
            Q, K = rmsnorm(Q), rmsnorm(K)
        scores = (Q @ K.T) * config.softmax_scale
        for i in range(T):
            out[i, h * config.d_h:(h + 1) * config.d_h] = \
                softmax_row(scores[i, : i + 1]) @ V[: i + 1]
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("config", ALL_CONFIGS + DECODE_CONFIGS,
                         ids=lambda c: f"{c.mechanism.value}-H{c.H}-r{c.r}-qk{int(c.qk_norm)}")
def test_forward_attention_equals_the_per_head_loop(config, dtype, per_head_kv):
    """The head-batched forward pass does each head's arithmetic unchanged."""
    w = init_weights(config, RngSpec(seed=13)).astype(dtype)
    X = np.random.default_rng(14).standard_normal((11, config.d)).astype(dtype)
    Y = forward_attention(w, config, X)
    assert Y.dtype == dtype
    assert Y.tobytes() == _forward_per_head(w, config, X, per_head_kv).tobytes()
