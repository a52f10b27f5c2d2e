import dataclasses

import numpy as np
import pytest

from attnlab import (
    AttentionConfig,
    DimensionError,
    Mechanism,
    NumericalError,
    ParameterError,
    RngSpec,
    UnsupportedMechanismError,
    bilinear_forms,
    center_gram,
    cosine,
    diversity_report,
    factorization_gap,
    gram,
    init_weights,
    magnitude_report,
    spectrum,
    svd_truncate,
)
from attnlab.presets import config_for
from attnlab.weights import effective_weights, gqa_group


def cfg(mechanism=Mechanism.LRKV, *, d=96, H=4, d_h=24, **kw):
    if mechanism is Mechanism.LRKV:
        kw.setdefault("r", 6)
    return AttentionConfig(mechanism=mechanism, d=d, H=H, d_h=d_h, **kw)


def random_forms(seed, H=4, d=64, d_h=16):
    gen = np.random.default_rng(seed)
    wq = np.stack([gen.standard_normal((d, d_h)) for _ in range(H)])
    wk = np.stack([gen.standard_normal((d, d_h)) for _ in range(H)])
    return wq, wk


def random_orthogonal(gen, n):
    Q, R = np.linalg.qr(gen.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


# ------------------------------------------------------------ Gram core


def test_trace_identity_matches_direct_inner_products():
    """The d_h-sided trace shortcut equals the materialized d x d inner
    products, including at the largest width the oracle covers."""
    for d, d_h in ((64, 16), (512, 64)):
        wq, wk = random_forms(0, H=3, d=d, d_h=d_h)
        g = gram(wq, wk)
        for i in range(3):
            for j in range(3):
                A_i = wq[i] @ wk[i].T
                A_j = wq[j] @ wk[j].T
                direct = float(np.sum(A_i * A_j))
                denom = max(1.0, abs(direct))
                assert abs(g[i, j] - direct) / denom < 1e-8


def test_gram_is_symmetric_with_unit_diagonal_when_normalized():
    g, zero_norm_heads = cosine(gram(*random_forms(1)))
    assert zero_norm_heads == ()
    assert np.array_equal(g, g.T)
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    assert np.abs(g).max() <= 1.0 + 1e-12


def test_gauge_invariance_of_the_full_report():
    """Rotating (Wq_h, Wk_h) by one orthogonal matrix per head must not
    move the similarity matrix or either spectrum."""
    gen = np.random.default_rng(2)
    wq, wk = random_forms(3)
    H = len(wq)
    base_sim, _ = cosine(gram(wq, wk))
    base_unc = spectrum(base_sim)
    base_cen = spectrum(center_gram(base_sim))
    for _ in range(20):
        Rs = [random_orthogonal(gen, wq.shape[2]) for _ in range(H)]
        sim, _ = cosine(gram(np.stack([wq[h] @ Rs[h] for h in range(H)]),
                             np.stack([wk[h] @ Rs[h] for h in range(H)])))
        assert np.abs(sim - base_sim).max() < 1e-9
        unc = spectrum(sim)
        cen = spectrum(center_gram(sim))
        assert abs(unc["effective_rank_abs"] - base_unc["effective_rank_abs"]) < 1e-9
        assert abs(cen["effective_rank_abs"] - base_cen["effective_rank_abs"]) < 1e-9


def test_gram_names_degenerate_head():
    wq, wk = random_forms(4)
    wq[1] = 0.0
    g = gram(wq, wk)
    assert g[1, 1] == 0.0
    # the cosine reports the zero-norm head and leaves its row at zero
    sim, zero_norm_heads = cosine(g)
    assert zero_norm_heads == (1,)
    assert not sim[1].any() and not sim[:, 1].any()


def test_bilinear_forms_rejects_nonfinite():
    config = cfg()
    w = init_weights(config, RngSpec(seed=0))
    bad_wq = w.wq.copy()
    bad_wq[2, 0, 0] = np.nan
    broken = dataclasses.replace(w, wq=bad_wq)
    with pytest.raises(NumericalError):
        bilinear_forms(broken, config)


# ------------------------------------------------------------ centering


def test_centering_is_idempotent_and_zero_sum():
    g, _ = cosine(gram(*random_forms(5)))
    c1 = center_gram(g)
    c2 = center_gram(c1)
    assert np.abs(c1.sum(axis=0)).max() < 1e-12
    assert np.abs(c1.sum(axis=1)).max() < 1e-12
    assert np.abs(c2 - c1).max() < 1e-12


def test_centering_kills_a_common_component():
    # identical heads: everything is mean, nothing is variance
    wq, wk = random_forms(6, H=1)
    sim, _ = cosine(gram(np.repeat(wq, 4, axis=0), np.repeat(wk, 4, axis=0)))
    assert np.allclose(sim, 1.0, atol=1e-12)
    centered = spectrum(center_gram(sim))
    assert centered["degenerate"]
    assert centered["effective_rank_abs"] == 0.0
    assert centered["n_components_for_90pct"] == 0


# ------------------------------------------------------------- spectrum


def diag_gram(values):
    return np.diag(np.asarray(values, dtype=np.float64))


def test_effective_rank_uniform_spectrum():
    for H in (2, 5, 8):
        rep = spectrum(diag_gram(np.ones(H)))
        assert rep["effective_rank_abs"] == pytest.approx(H, abs=1e-12)
        assert rep["effective_rank_pct"] == pytest.approx(1.0, abs=1e-12)
        assert rep["n_components_for_90pct"] == int(np.ceil(0.9 * H))


def test_effective_rank_one_hot_spectrum():
    rep = spectrum(diag_gram([1.0, 0.0, 0.0, 0.0]))
    assert rep["effective_rank_abs"] == pytest.approx(1.0, abs=1e-12)
    assert rep["n_components_for_90pct"] == 1


def test_effective_rank_mixed_fixture():
    rep = spectrum(diag_gram([0.5, 0.25, 0.25]))
    assert rep["effective_rank_abs"] == pytest.approx(2.8284271247461903, abs=1e-12)
    assert rep["cumulative_variance"][-1] == pytest.approx(1.0)


def test_spectrum_scale_invariance():
    vals = np.array([3.0, 1.5, 0.25, 0.25])
    a = spectrum(diag_gram(vals))
    b = spectrum(diag_gram(vals * 7.5))
    assert a["effective_rank_abs"] == pytest.approx(b["effective_rank_abs"], abs=1e-12)


def test_spectrum_flags_fully_degenerate():
    rep = spectrum(diag_gram(np.zeros(5)))
    assert rep["degenerate"] and rep["effective_rank_abs"] == 0.0
    assert rep["effective_rank_pct"] == 0.0


def test_spectrum_rejects_indefinite_input():
    with pytest.raises(NumericalError):
        spectrum(diag_gram([1.0, -1.0]))


def test_spectrum_floors_roundoff_negatives():
    rep = spectrum(diag_gram([1.0, -1e-12]))
    assert rep["eigenvalues"].min() == 0.0


# ------------------------------------------------------- full reports


def test_diversity_report_structure():
    config = cfg()
    rep = diversity_report(init_weights(config, RngSpec(seed=7)), config)
    assert rep["H"] == config.H
    assert rep["similarity"].shape == (config.H, config.H)
    assert rep["degenerate_heads"] == ()
    assert 1.0 <= rep["uncentered"]["effective_rank_abs"] <= config.H + 1e-9
    assert rep["centered"]["effective_rank_abs"] <= config.H - 1 + 1e-9


def test_diversity_report_tolerates_dead_head():
    config = cfg()
    w = init_weights(config, RngSpec(seed=8))
    wq = w.wq.copy()
    wq[3] = 0.0
    rep = diversity_report(dataclasses.replace(w, wq=wq), config)
    assert rep["degenerate_heads"] == (3,)
    assert np.isfinite(rep["similarity"]).all()


def test_diversity_report_works_for_full_rank_mechanisms():
    config = cfg(Mechanism.MHA)
    rep = diversity_report(init_weights(config, RngSpec(seed=9)), config)
    assert rep["similarity"].shape == (config.H, config.H)


# ------------------------------------------------------------ magnitude


def test_magnitude_report_values():
    config = cfg()
    w = init_weights(config, RngSpec(seed=10))
    rep = magnitude_report(w, config)
    assert rep["shared_k"] == pytest.approx(np.linalg.norm(w.wk_shared))
    for h in range(config.H):
        assert rep["residual_k"][h] == pytest.approx(
            np.linalg.norm(w.uk[h] @ w.bk[h].T))
        assert -1.0 <= rep["cosine_k"][h] <= 1.0
    assert rep["residual_v"].shape == (config.H,)


def test_magnitude_report_zero_rank_and_mechanism_guard():
    config = cfg(r=0)
    rep = magnitude_report(init_weights(config, RngSpec(seed=0)), config)
    assert np.array_equal(rep["residual_k"], np.zeros(config.H))
    assert np.array_equal(rep["cosine_k"], np.zeros(config.H))
    mha = cfg(Mechanism.MHA)
    with pytest.raises(UnsupportedMechanismError):
        magnitude_report(init_weights(mha, RngSpec(seed=0)), mha)


# ------------------------------------------------------- truncated SVD


def test_svd_truncate_matches_numpy_tail():
    gen = np.random.default_rng(11)
    for d, d_h in ((20, 8), (64, 16), (16, 16)):
        W = gen.standard_normal((d, d_h))
        s = np.linalg.svd(W, compute_uv=False)
        for r in (0, 1, d_h // 2, min(d, d_h)):
            U, B, err = svd_truncate(W, r)
            assert U.shape == (d, r) and B.shape == (d_h, r)
            assert err == pytest.approx(np.sqrt((s[r:] ** 2).sum()), abs=1e-9)
            assert np.linalg.norm(W - U @ B.T) == pytest.approx(err, abs=1e-9)


def test_svd_truncate_matches_numpy_reconstruction():
    gen = np.random.default_rng(12)
    W = gen.standard_normal((24, 10))
    U_np, s, Vt = np.linalg.svd(W, full_matrices=False)
    for r in (1, 3, 7):
        U, B, _ = svd_truncate(W, r)
        best = (U_np[:, :r] * s[:r]) @ Vt[:r]
        assert np.abs(U @ B.T - best).max() < 1e-9


def test_svd_truncate_orthonormal_right_factor():
    U, B, _ = svd_truncate(np.random.default_rng(13).standard_normal((30, 12)), 5)
    assert np.abs(B.T @ B - np.eye(5)).max() < 1e-10


def test_svd_truncate_rejects_bad_rank():
    W = np.zeros((6, 4))
    for r in (-1, 5):
        with pytest.raises(ParameterError):
            svd_truncate(W, r)


def test_svd_truncate_rejects_a_1d_matrix():
    with pytest.raises(DimensionError,
                       match=r"W must be 2-D or a stack of 2-D matrices, got shape \(6,\)"):
        svd_truncate(np.zeros(6), 1)


def test_eckart_young_dominance():
    """No same-rank competitor beats the truncated SVD, across three
    competitor families (random, rescaled, perturbed-optimal)."""
    gen = np.random.default_rng(14)
    W = gen.standard_normal((40, 12))
    r = 4
    U, B, err = svd_truncate(W, r)
    slack = 1e-9
    for trial in range(200):
        kind = trial % 3
        if kind == 0:
            Uc = gen.standard_normal((40, r))
            Bc = gen.standard_normal((12, r))
        elif kind == 1:
            Uc, Bc = U * gen.uniform(0.5, 1.5), B
        else:
            Uc = U + gen.standard_normal(U.shape) * 0.01
            Bc = B + gen.standard_normal(B.shape) * 0.01
        competitor = np.linalg.norm(W - Uc @ Bc.T)
        assert competitor >= err - slack


# --------------------------------------------------- factorization gap


def test_factorization_gap_reports_near_one_for_svd_built_residuals():
    config = cfg(d=64, H=4, d_h=16, r=5)
    w = init_weights(config, RngSpec(seed=15))
    ref_cfg = cfg(Mechanism.MHA, d=64, H=4, d_h=16)
    ref = init_weights(ref_cfg, RngSpec(seed=16))
    # build each residual from the truncated SVD of its own target: the
    # learned error then equals the optimal error
    uk, bk, uv, bv = [], [], [], []
    for h in range(4):
        U, B, _ = svd_truncate(ref.wk[h] - w.wk_shared, 5)
        uk.append(U), bk.append(B)
        U, B, _ = svd_truncate(ref.wv[h] - w.wv_shared, 5)
        uv.append(U), bv.append(B)
    built = dataclasses.replace(w, uk=np.stack(uk), bk=np.stack(bk),
                                uv=np.stack(uv), bv=np.stack(bv))
    for row in factorization_gap(built, config, ref):
        assert row["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_factorization_gap_random_residuals_are_suboptimal():
    config = cfg(d=64, H=4, d_h=16, r=5)
    w = init_weights(config, RngSpec(seed=17))
    ref = init_weights(cfg(Mechanism.MHA, d=64, H=4, d_h=16), RngSpec(seed=18))
    rows = factorization_gap(w, config, ref)
    assert len(rows) == 8  # H heads x {k, v}
    for row in rows:
        assert row["ratio"] >= 1.0 - 1e-12
        assert row["e_learned"] >= row["e_opt"] - 1e-12


def test_factorization_gap_validates_reference():
    config = cfg(d=64, H=4, d_h=16, r=5)
    w = init_weights(config, RngSpec(seed=19))
    mqa_ref = init_weights(cfg(Mechanism.MQA, d=64, H=4, d_h=16), RngSpec(seed=0))
    with pytest.raises(ParameterError):
        factorization_gap(w, config, mqa_ref)
    narrow = cfg(Mechanism.MHA, d=64, H=8, d_h=8)
    with pytest.raises(ParameterError, match=r"reference K/V stacks have shapes \(8, 64, 8\) "
                                             r"and \(8, 64, 8\), expected \(4, 64, 16\)"):
        factorization_gap(w, config, init_weights(narrow, RngSpec(seed=0)))
    with pytest.raises(UnsupportedMechanismError):
        mha = cfg(Mechanism.MHA, d=64, H=4, d_h=16)
        factorization_gap(init_weights(mha, RngSpec(seed=0)), mha,
                          init_weights(mha, RngSpec(seed=1)))


# ------------------------------------------------- stacks vs per-head loops


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 2}),
    (Mechanism.MLA, {"d_c": 12}), (Mechanism.LRKV, {"r": 6}), (Mechanism.LRKV, {"r": 0}),
], ids=["mha", "mqa", "gqa-G2", "mla", "lrkv", "lrkv-r0"])
def test_bilinear_forms_stack_each_heads_factors(mechanism, kw, per_head_kv):
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=3))
    wq, wk = bilinear_forms(w, config)
    assert len(wq) == config.H and wq.tobytes() == w.wq.tobytes()
    assert wk.shape == (config.H, config.d, config.d_h)
    for h in range(config.H):
        assert wk[h].tobytes() == per_head_kv(w, config, h)[0].tobytes(), h


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("r", [6, 0])
def test_magnitude_report_equals_the_per_head_loop(r, dtype):
    config = cfg(r=r)
    w = init_weights(config, RngSpec(seed=4)).astype(dtype)
    rep = magnitude_report(w, config)
    for p, shared, us, bs in (("k", w.wk_shared, w.uk, w.bk), ("v", w.wv_shared, w.uv, w.bv)):
        s = float(np.linalg.norm(shared))
        assert rep[f"shared_{p}"] == s
        for h in range(config.H):
            R = us[h] @ bs[h].T
            res = float(np.linalg.norm(R))
            denom = np.float64(s * res)  # a float64 array element, not a weak Python float
            cos = 0.0 if denom == 0.0 else float(np.clip(np.sum(shared * R) / denom, -1, 1))
            assert rep[f"residual_{p}"][h] == res, (p, h)
            assert rep[f"total_{p}"][h] == np.linalg.norm(shared + R), (p, h)
            assert rep[f"cosine_{p}"][h] == cos, (p, h)


@pytest.mark.parametrize("n", [1, 2, 24])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_input_is_a_numerical_error(n, bad):
    """A poisoned Gram or weight raises, instead of an effective rank of 1.0
    or an err of nan."""
    G = np.eye(n)
    G[0, n - 1] = G[n - 1, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        spectrum(G)
    W = np.random.default_rng(n).standard_normal((n + 3, n))
    W[1, n - 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        svd_truncate(W, n // 2)


@pytest.mark.parametrize("batch", [(3,), (2, 2)], ids=str)
@pytest.mark.parametrize("d,d_h", [(20, 8), (16, 16), (9, 12)])
def test_stacked_svd_truncate_equals_per_matrix_calls(d, d_h, batch):
    W = np.random.default_rng(d * d_h).standard_normal((*batch, d, d_h))
    for r in (0, 1, min(d, d_h) // 2, min(d, d_h)):
        U, B, err = svd_truncate(W, r)
        assert U.shape == (*batch, d, r) and B.shape == (*batch, d_h, r)
        assert err.shape == batch
        for i in np.ndindex(batch):
            u, b, e = svd_truncate(W[i], r)
            assert isinstance(e, float)
            assert U[i].tobytes() == u.tobytes() and B[i].tobytes() == b.tobytes(), (r, i)
            assert err[i] == e, (r, i)


def per_head_factorization_gap(w, config, reference, r):
    """factorization_gap as one svd_truncate call per head and path: the
    reference for the stacked call."""
    rows = []
    paths = zip("kv", (reference.wk, reference.wv), (w.wk_shared, w.wv_shared),
                (effective_weights(w, config, path) for path in "kv"))
    for path, refs, shared, learned_stack in paths:
        for h in range(config.H):
            target = refs[h]
            learned = learned_stack[gqa_group(h, config.H, len(learned_stack))]
            e_learned = float(np.linalg.norm(target - learned))
            D = target - shared
            _, _, e_opt = svd_truncate(D, r)
            eps = 1e-12 * max(1.0, float(np.linalg.norm(D)))
            if e_opt < eps:
                ratio = 1.0 if e_learned < eps else float("inf")
            else:
                ratio = e_learned / e_opt
            rows.append({"head": h, "path": path, "e_learned": e_learned,
                         "e_opt": e_opt, "ratio": ratio})
    return rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("r", [0, 4])
def test_factorization_gap_equals_the_per_head_loop(r, dtype):
    config = cfg(d=32, H=2, d_h=16, r=4)
    w = init_weights(config, RngSpec(seed=21)).astype(dtype)
    ref = init_weights(cfg(Mechanism.MHA, d=32, H=2, d_h=16), RngSpec(seed=22)).astype(dtype)
    assert factorization_gap(w, config, ref, r=r) == per_head_factorization_gap(w, config, ref, r)


def test_factorization_gap_equals_the_per_head_loop_at_128m():
    config = config_for("128M", "lrkv")
    w = init_weights(config, RngSpec(seed=23))
    ref = init_weights(config_for("128M", "mha"), RngSpec(seed=24))
    rows = factorization_gap(w, config, ref)
    assert len(rows) == 2 * config.H
    assert rows == per_head_factorization_gap(w, config, ref, config.r)


def test_bilinear_forms_builds_only_the_k_stack(traced_peak):
    """An lrkv set's forms allocate one (H, d, d_h) K stack and its finite
    screen; V is never expanded."""
    config = cfg(d=256, H=4, d_h=64, r=16)
    w = init_weights(config, RngSpec(seed=20))
    (_, wk), peak = traced_peak(bilinear_forms, w, config)
    stack = config.H * config.d * config.d_h * 8
    assert wk.nbytes == stack
    assert peak <= 1.5 * stack, peak / stack


# ------------------------------------------- pair by pair, one path at a time


STACKED_CASES = {
    "mha": (Mechanism.MHA, {}), "mqa": (Mechanism.MQA, {}),
    "gqa-G1": (Mechanism.GQA, {"G": 1}), "gqa-G2": (Mechanism.GQA, {"G": 2}),
    "mla": (Mechanism.MLA, {"d_c": 12}), "lrkv": (Mechanism.LRKV, {"r": 6}),
    "lrkv-r0": (Mechanism.LRKV, {"r": 0}),
    "lrkv-r0-H1": (Mechanism.LRKV, {"r": 0, "d": 24, "H": 1}),
}


def _frobenius_rows(stack):
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(flat, flat)).astype(np.float64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("case", STACKED_CASES)
def test_gram_equals_the_stacked_formula(case, dtype):
    """The pair-by-pair Gram keeps the bits of the row-stacked products."""
    mechanism, kw = STACKED_CASES[case]
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=31)).astype(dtype)
    shared = None if w.wk_shared is None else w.wk_shared.copy()
    wq, wk = bilinear_forms(w, config)
    H = config.H
    want = np.empty((H, H))
    for i in range(H):
        P = wk[i].T @ wk[i:]
        Q = wq[i:].mT @ wq[i]
        want[i, i:] = want[i:, i] = np.sum(P * Q.mT, axis=(1, 2))
    assert gram(wq, wk).tobytes() == want.tobytes()
    if shared is not None:
        assert w.wk_shared.tobytes() == shared.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("case", [k for k, (m, _) in STACKED_CASES.items() if m is Mechanism.LRKV])
def test_factorization_gap_equals_the_stacked_formula(case, dtype):
    """One D buffer and one path at a time keep the bits of the
    concatenated stacks, and leave the weights as they were."""
    _, kw = STACKED_CASES[case]
    config = cfg(**kw)
    H = config.H
    w = init_weights(config, RngSpec(seed=32)).astype(dtype)
    ref = init_weights(cfg(Mechanism.MHA, d=config.d, H=H, d_h=config.d_h),
                       RngSpec(seed=33)).astype(dtype)
    before = {name: t.copy() for name, t in w.named_tensors().items()}
    for r in sorted({0, config.r, 3}):
        stacks = [effective_weights(w, config, p) for p in "kv"]
        learned = np.concatenate([s[gqa_group(np.arange(H), H, len(s))] for s in stacks])
        targets = np.concatenate((ref.wk, ref.wv))
        D = np.concatenate((ref.wk - w.wk_shared, ref.wv - w.wv_shared))
        _, _, e_opt = svd_truncate(D, r)
        e_learned = _frobenius_rows(targets - learned)
        eps = 1e-12 * np.maximum(1.0, _frobenius_rows(D))
        rows = factorization_gap(w, config, ref, r=r)
        assert len(rows) == 2 * H
        for i, row in enumerate(rows):
            ratio = (e_learned[i] / e_opt[i] if e_opt[i] >= eps[i]
                     else 1.0 if e_learned[i] < eps[i] else float("inf"))
            assert row == {"head": i % H, "path": "kv"[i // H], "e_learned": float(e_learned[i]),
                           "e_opt": float(e_opt[i]), "ratio": float(ratio)}, (r, i)
    for name, t in w.named_tensors().items():
        assert t.tobytes() == before[name].tobytes(), name


# ------------------------------------------------------- working memory


def test_diversity_report_holds_one_k_stack(traced_peak):
    """With the weights held, a 128M report allocates the K stack and, per
    head pair, two d_h x d_h products and their elementwise product: no
    (H, d, d_h) finite screen and no (H, d_h, d_h) product stacks."""
    config = config_for("128M", "lrkv")
    w = init_weights(config, RngSpec(seed=34))
    _, peak = traced_peak(diversity_report, w, config)
    stack = config.H * config.d * config.d_h * 8
    assert peak <= stack + 6 * config.d_h ** 2 * 8, (peak, stack)


def test_factorization_gap_holds_d_and_one_path(traced_peak):
    """The optimum's (2H, d, d_h) D buffer, one path's expansion and its
    difference from the targets, and the solver's (2H, d_h, d_h) arrays:
    under five (H, d, d_h) stacks, where four concatenated copies of both
    paths took over eight."""
    config = cfg(d=384, H=6, d_h=64, r=8)
    w = init_weights(config, RngSpec(seed=35))
    ref = init_weights(cfg(Mechanism.MHA, d=384, H=6, d_h=64), RngSpec(seed=36))
    _, peak = traced_peak(factorization_gap, w, config, ref)
    stack = config.H * config.d * config.d_h * 8
    assert peak <= 5 * stack, peak / stack
