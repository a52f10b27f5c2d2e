import numpy as np
import pytest

from attnlab import (
    AttentionConfig,
    DimensionError,
    Mechanism,
    RngSpec,
    UnsupportedMechanismError,
    effective_weights,
    gqa_group,
    init_weights,
    prefill,
    projection_backward,
)
from attnlab.weights import (
    ALIGNMENT,
    RESIDUAL_INIT_FRACTION,
    kv_heads,
    residual_rank,
    tensor_shapes,
)


def cfg(mechanism, **kw):
    base = dict(d=64, H=4, d_h=16)
    base.update(kw)
    return AttentionConfig(mechanism=mechanism, **base)


def test_init_is_deterministic():
    c = cfg(Mechanism.LRKV, r=8)
    a = init_weights(c, RngSpec(seed=42))
    b = init_weights(c, RngSpec(seed=42))
    for name, t in a.named_tensors().items():
        assert np.array_equal(t, b.named_tensors()[name]), name
    other = init_weights(c, RngSpec(seed=43))
    assert not np.array_equal(a.wk_shared, other.wk_shared)


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_shapes_per_mechanism(mechanism):
    kw = {"r": 8} if mechanism is Mechanism.LRKV else {}
    if mechanism is Mechanism.GQA:
        kw["G"] = 2
    if mechanism is Mechanism.MLA:
        kw["d_c"] = 12
    c = cfg(mechanism, **kw)
    w = init_weights(c, RngSpec(seed=0))
    assert len(w.wq) == c.H and w.wq[0].shape == (c.d, c.d_h)
    if mechanism is Mechanism.MHA:
        assert len(w.wk) == c.H and w.wk[0].shape == (c.d, c.d_h)
    elif mechanism is Mechanism.GQA:
        assert len(w.wk) == c.G
    elif mechanism is Mechanism.MQA:
        assert w.wk_shared.shape == (c.d, c.d_h) and w.wk is None
    elif mechanism is Mechanism.MLA:
        assert w.wdown.shape == (c.d, c.d_c)
        assert len(w.wup_k) == c.H and w.wup_k[0].shape == (c.d_c, c.d_h)
    else:
        assert w.wk_shared.shape == (c.d, c.d_h)
        assert len(w.uk) == c.H and w.uk[0].shape == (c.d, c.r)
        assert w.bk[0].shape == (c.d_h, c.r)


def test_lrkv_residual_calibration_exact():
    c = cfg(Mechanism.LRKV, r=8)
    w = init_weights(c, RngSpec(seed=5))
    for us, bs, shared in ((w.uk, w.bk, w.wk_shared), (w.uv, w.bv, w.wv_shared)):
        base = np.linalg.norm(shared)
        for h in range(c.H):
            ratio = np.linalg.norm(us[h] @ bs[h].T) / base
            assert ratio == pytest.approx(RESIDUAL_INIT_FRACTION, abs=1e-12)


def test_lrkv_rank_zero_factors_are_empty():
    c = cfg(Mechanism.LRKV, r=0)
    w = init_weights(c, RngSpec(seed=0))
    assert w.uk[0].shape == (c.d, 0) and w.bk[0].shape == (c.d_h, 0)
    K, V = (effective_weights(w, c, path) for path in "kv")
    # complete sharing: the shared arrays themselves, no residual add
    assert _same_view(K[0], w.wk_shared) and _same_view(V[0], w.wv_shared)


def _same_view(a, b):
    """True when a and b view the same memory the same way (no copy)."""
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides)


EXPANSION_CASES = [
    (Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 1}),
    (Mechanism.GQA, {"G": 2}), (Mechanism.GQA, {"G": 4}), (Mechanism.MLA, {"d_c": 12}),
    (Mechanism.LRKV, {"r": 8}), (Mechanism.LRKV, {"r": 0}),
]
EXPANSION_IDS = ["mha", "mqa", "gqa-G1", "gqa-G2", "gqa-GH", "mla", "lrkv", "lrkv-r0"]
EXPANSION_DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32],
                                           ids=["f64", "f32"])


def _is_stored(c):
    """True when every head's K/V is a stored weight (no reconstruction)."""
    return c.mechanism is not Mechanism.MLA and residual_rank(c) == 0


@EXPANSION_DTYPES
@pytest.mark.parametrize("mechanism,kw", EXPANSION_CASES, ids=EXPANSION_IDS)
def test_kv_expansion_of_weights_matches_per_head_formulas(mechanism, kw, dtype, per_head_kv):
    """For each path, slice gqa_group(h) of the expanded stack is head h's
    K (or V) weight bit for bit; stored weights come back as views of the
    stored arrays."""
    c = cfg(mechanism, **kw)
    w = init_weights(c, RngSpec(seed=1)).astype(dtype)
    n = kv_heads(c) if _is_stored(c) else c.H
    for i, path in enumerate("kv"):
        W = effective_weights(w, c, path)
        assert W.shape == (n, c.d, c.d_h), path
        assert W.dtype == dtype, path
        for h in range(c.H):
            g = gqa_group(h, c.H, n)
            ref = per_head_kv(w, c, h)[i]
            assert W[g].tobytes() == ref.tobytes(), (path, h)
            if _is_stored(c):
                assert _same_view(W[g], ref), (path, h)
        if not _is_stored(c):  # reconstructed heads are fresh arrays
            for t in w.named_tensors().values():
                assert not np.shares_memory(W, t), path


@EXPANSION_DTYPES
@pytest.mark.parametrize("mechanism,kw", EXPANSION_CASES, ids=EXPANSION_IDS)
def test_kv_expansion_of_cached_rows_matches_expanded_weights(mechanism, kw, dtype):
    """For each path, expanding a prefilled cache's rows gives X @ the
    expanded weights; stored streams come back as views of the path's own
    stream of the cache."""
    c = cfg(mechanism, **kw)
    w = init_weights(c, RngSpec(seed=2)).astype(dtype)
    X = np.random.default_rng(7).standard_normal((9, c.d)).astype(dtype)
    cache = prefill(w, c, X, capacity=12)
    tol = 1e-12 if dtype is np.float64 else 1e-5
    for path in "kv":
        got = effective_weights(
            w, c, path, lambda name: cache.streams[name][..., :cache.length, :])
        ref = X @ effective_weights(w, c, path)
        assert got.shape == ref.shape and got.dtype == dtype, path
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), path
        # stored: K views the K stream and V the V stream; reconstructed: no views
        views = [name for name, rows in cache.streams.items() if np.shares_memory(got, rows)]
        if _is_stored(c):
            assert len(views) == 1 and views[0].startswith(f"w{path}"), views
        else:
            assert views == [], path


def test_expansion_rejects_an_unknown_path():
    c = cfg(Mechanism.MQA)
    with pytest.raises(DimensionError, match="path"):
        effective_weights(init_weights(c, RngSpec(seed=0)), c, "q")


def test_gqa_group_mapping():
    assert [gqa_group(h, 8, 2) for h in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert [gqa_group(h, 6, 3) for h in range(6)] == [0, 0, 1, 1, 2, 2]
    assert [gqa_group(h, 4, 4) for h in range(4)] == [0, 1, 2, 3]


def test_astype_round_trip():
    c = cfg(Mechanism.LRKV, r=4)
    w = init_weights(c, RngSpec(seed=0))
    w32 = w.astype(np.float32)
    assert w32.wk_shared.dtype == np.float32
    assert w32.config == c
    assert np.allclose(w32.wk_shared, w.wk_shared, atol=1e-6)


def test_named_tensors_cover_all_payload():
    c = cfg(Mechanism.MLA, d_c=12)
    names = set(init_weights(c, RngSpec(seed=0)).named_tensors())
    assert {"wq.0", "wq.3", "wdown", "wup_k.0", "wup_v.3"} <= names
    assert not any(n.startswith("wk") for n in names)


def test_projection_backward_matches_definition():
    c = cfg(Mechanism.LRKV, r=8)
    w = init_weights(c, RngSpec(seed=9))
    gen = np.random.default_rng(0)
    X = gen.standard_normal((5, c.d))
    dK = gen.standard_normal((c.H, 5, c.d_h))
    dWshared, dU, dB = projection_backward(w, c, X, dK, path="k")
    assert dWshared.shape == (c.d, c.d_h)
    assert dU.shape == (c.H, c.d, c.r) and dB.shape == (c.H, c.d_h, c.r)
    assert np.allclose(dWshared, X.T @ dK.sum(axis=0))
    assert np.allclose(dU[1], X.T @ (dK[1] @ w.bk[1]))
    assert np.allclose(dB[1], dK[1].T @ (X @ w.uk[1]))


@pytest.mark.parametrize("path", ["k", "v"])
@pytest.mark.parametrize("r", [0, 3])
@pytest.mark.parametrize("H", [2, 9])  # H >= 8 tells a pairwise head sum from a sequential one
def test_projection_backward_matches_per_head_formulas_bitwise(
        per_head_projection_grad, path, r, H):
    c = AttentionConfig(mechanism=Mechanism.LRKV, d=H * 8, H=H, d_h=8, r=r)
    w = init_weights(c, RngSpec(seed=4))
    gen = np.random.default_rng(5)
    X = gen.standard_normal((6, c.d))
    dK = gen.standard_normal((H, 6, c.d_h))
    g = projection_backward(w, c, X, dK, path=path)
    dWshared, dU, dB = per_head_projection_grad(w, c, X, dK, path)
    for got, want in zip(g, (dWshared, dU, dB), strict=True):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_projection_backward_rejects_bad_inputs():
    c = cfg(Mechanism.LRKV, r=8)
    w = init_weights(c, RngSpec(seed=9))
    X = np.zeros((5, c.d))
    for dK in (np.zeros((c.H, 4, c.d_h)),  # T differs from X's
               np.zeros((5, c.d_h)),  # one head's 2-D cotangent
               np.zeros((c.H - 1, 5, c.d_h))):  # a head short
        with pytest.raises(DimensionError):
            projection_backward(w, c, X, dK, path="k")
    with pytest.raises(DimensionError):
        projection_backward(w, c, X, np.zeros((c.H, 5, c.d_h)), path="q")
    for bad_X, message in ((X[0], r"X must be 2-D \(T, d\), got shape"),
                           (X[:, 1:], f"X has width {c.d - 1}, config.d={c.d}")):
        with pytest.raises(DimensionError, match=message):
            projection_backward(w, c, bad_X, np.zeros((c.H, 5, c.d_h)), path="k")
    mha = cfg(Mechanism.MHA)
    with pytest.raises(UnsupportedMechanismError):
        projection_backward(init_weights(mha, RngSpec(seed=0)), mha, X,
                            np.zeros((c.H, 5, c.d_h)), path="k")


ALL_MECHANISMS = [
    (Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 2}),
    (Mechanism.MLA, {"d_c": 12}), (Mechanism.LRKV, {"r": 8}), (Mechanism.LRKV, {"r": 0}),
]
ALL_IDS = ["mha", "mqa", "gqa", "mla", "lrkv", "lrkv-r0"]


@pytest.mark.parametrize("mechanism,kw", ALL_MECHANISMS, ids=ALL_IDS)
def test_weight_tensors_are_contiguous_and_aligned(mechanism, kw):
    """init_weights and astype allocate every tensor C-contiguous and starting
    on an ALIGNMENT-byte boundary, a tensor with no elements included."""
    c = cfg(mechanism, **kw)
    w = init_weights(c, RngSpec(seed=3))
    for ws in (w, w.astype(np.float32), w.astype(np.float64)):
        for field in tensor_shapes(c):
            t = getattr(ws, field)
            assert t.flags.c_contiguous, field
            assert t.ctypes.data % ALIGNMENT == 0, field
    assert w.astype(np.float64).wq is not w.wq  # astype still copies


def _reference_init(c, seed):
    """init_weights as ``gen.normal`` draws, one per tensor in draw order."""
    gen = np.random.Generator(np.random.PCG64(seed))
    shapes = tensor_shapes(c)
    out = {name: gen.normal(0.0, np.sqrt(2.0 / shape[-2]), size=shape)
           for name, shape in shapes.items() if name not in ("uk", "bk", "uv", "bv")}
    if c.mechanism is Mechanism.LRKV:
        for u_name, b_name, shared in (("uk", "bk", out["wk_shared"]),
                                       ("uv", "bv", out["wv_shared"])):
            us, bs = np.zeros(shapes[u_name]), np.zeros(shapes[b_name])
            for h in range(c.H):
                u = gen.normal(0.0, np.sqrt(2.0 / c.d), size=us.shape[1:])
                bs[h] = gen.normal(0.0, np.sqrt(1.0 / c.r), size=bs.shape[1:])
                res_norm = np.linalg.norm(u @ bs[h].T)
                us[h] = u * (RESIDUAL_INIT_FRACTION * np.linalg.norm(shared) / res_norm)
            out[u_name], out[b_name] = us, bs
    return out


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.MHA, {}), (Mechanism.MLA, {"d_c": 12}), (Mechanism.LRKV, {"r": 8}),
], ids=["mha", "mla", "lrkv"])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_init_weights_bytes_match_gen_normal_draws(mechanism, kw, seed):
    c = cfg(mechanism, **kw)
    w = init_weights(c, RngSpec(seed=seed))
    for field, ref in _reference_init(c, seed).items():
        assert getattr(w, field).tobytes() == ref.tobytes(), field
