"""Acceptance gate: one test per claim the library is sold on.

Each criterion below pins its own tolerance next to the assertion so a
`pytest -v` run reads as a pass/fail line per claim. Nothing here should
be clever: sampling is fixed-seed, oracles are spelled out inline, and
runtime budgets are asserted where the claim includes one.
"""

import time
from dataclasses import replace
from fractions import Fraction

import csv

import numpy as np
import pytest

from attnlab import (
    PRESETS,
    AttentionConfig,
    CostQuery,
    Mechanism,
    RngSpec,
    WeightSet,
    ablation_table,
    cache_bytes,
    cache_ratio,
    center_gram,
    config_for,
    cosine,
    decode_explicit,
    decode_factored,
    decode_flops,
    forward_attention,
    gradcheck_rows,
    gram,
    init_weights,
    kv_param_count,
    prefill,
    spectrum,
    svd_truncate,
)
from attnlab.cli import run_cli
from attnlab.diversity import bilinear_forms

TOL_F64 = 1e-9
TOL_F32 = 1e-5
TOL_GAUGE = 1e-9
TOL_CENTER = 1e-9
TOL_TRACE_REL = 1e-8
TOL_GRAD = 1e-4
TOL_INIT = 1e-6
TOL_ENDPOINT = 1e-6
TOL_RATIO = 1e-12  # float rounding of 1.0/H + r/d_h against the exact fraction
DECODE_TAIL = 4  # steps decoded through both paths at full context


def _sample_lrkv(rng):
    H = int(rng.integers(2, 17))
    d_h = int(rng.integers(8, 129))
    return AttentionConfig(
        mechanism=Mechanism.LRKV, d=H * d_h, H=H, d_h=d_h,
        r=int(rng.integers(0, d_h + 1)),
    )


def _sample_mla(rng):
    H = int(rng.integers(2, 17))
    d_h = int(rng.integers(8, 129))
    d = H * d_h
    return AttentionConfig(
        mechanism=Mechanism.MLA, d=d, H=H, d_h=d_h,
        d_c=int(rng.integers(1, min(d, 256) + 1)),
    )


def _lockstep_diffs(config, w, X):
    """Worst per-step |logit| / |out| gap between the two decode paths.

    Both caches see the same prefill; the last few tokens are decoded in
    lockstep so the comparison happens at full context length.
    """
    T = X.shape[0]
    k = min(T, DECODE_TAIL)
    ce = prefill(w, config, X[: T - k], capacity=T)
    cf = prefill(w, config, X[: T - k], capacity=T)
    logit = out = 0.0
    for i in range(T - k, T):
        a = decode_explicit(ce, w, config, X[i])
        b = decode_factored(cf, w, config, X[i])
        logit = max(logit, float(np.abs(a.logits - b.logits).max()))
        out = max(out, float(np.abs(a.out - b.out).max()))
    return logit, out


def test_criterion_01_low_rank_factored_decode_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(20260801)
    for trial in range(50):
        config = _sample_lrkv(rng)
        T = int(rng.integers(1, 513))
        w = init_weights(config, RngSpec(seed=trial))
        X = rng.standard_normal((T, config.d))
        logit, out = _lockstep_diffs(config, w, X)
        assert logit <= TOL_F64, (trial, config, logit)
        assert out <= TOL_F64, (trial, config, out)
        logit32, out32 = _lockstep_diffs(
            config, w.astype(np.float32), X.astype(np.float32)
        )
        assert logit32 <= TOL_F32, (trial, config, logit32)
        assert out32 <= TOL_F32, (trial, config, out32)
    assert time.perf_counter() - start < 60.0


def test_criterion_02_latent_factored_decode_exactness():
    rng = np.random.default_rng(20260802)
    for trial in range(50):
        config = _sample_mla(rng)
        T = int(rng.integers(1, 513))
        w = init_weights(config, RngSpec(seed=trial))
        X = rng.standard_normal((T, config.d))
        logit, out = _lockstep_diffs(config, w, X)
        assert logit <= TOL_F64, (trial, config, logit)
        assert out <= TOL_F64, (trial, config, out)


def _memory_rows(tmp_path, *extra):
    out = str(tmp_path / "memory.csv")
    code = run_cli(["memory", "--preset", "128M", "--tokens", "2048",
                    "--batch", "1", "--bytes", "2", *extra, "--out", out])
    assert code == 0
    with open(out, newline="") as f:
        return list(csv.DictReader(f))


def test_criterion_03a_cache_table_mebibytes(tmp_path):
    rows = _memory_rows(tmp_path)
    assert [r["mechanism"] for r in rows] == ["mha", "mqa", "gqa", "mla", "lrkv"]
    mib = [r["cache_mib"] for r in rows]
    assert mib[0] == "72.0"
    assert mib[1] == "12.0"
    assert mib[2] == "36.0"
    assert mib[3] == "12.0"  # the default: two latent streams priced
    assert mib[4] == "48.0"
    # one stream, the latent a DecodeCache holds
    mla = _memory_rows(tmp_path, "--mla-streams", "1")[3]
    assert (mla["mechanism"], mla["cache_mib"]) == ("mla", "6.0")


def test_criterion_03b_cache_table_ratio_column(tmp_path):
    rows = _memory_rows(tmp_path)
    assert [r["ratio_formula"] for r in rows] == \
        ["1.000", "0.167", "0.500", "", "0.526"]


def test_criterion_03c_scale_ratio_arithmetic_as_stated():
    """Scale-ratio arithmetic at head counts 6/18/32, d_h = 128.

    Pinned: at r = 64 the ratio is exactly 1/H + r/d_h (2/3, 5/9, 17/32),
    both from ``cache_ratio`` and from the byte counts of ``cache_bytes``;
    at every preset's ``table_rank`` it falls inside the stated 45-53% of
    the full cache; and 128M at its table rank gives the stated 0.526.

    Not pinned: the stated 0.484 (H = 18) and 0.451 (H = 32). No integer
    rank at d_h = 128 reaches them (r = 55 gives 0.485, r = 54 gives
    0.453), so they are not outputs of this formula at any rank, and the
    abstract does not say where they come from.
    """
    r, d_h = 64, 128
    for H in (6, 18, 32):
        want = Fraction(1, H) + Fraction(r, d_h)
        lrkv = AttentionConfig(mechanism=Mechanism.LRKV, d=H * d_h, H=H,
                               d_h=d_h, r=r)
        mha = replace(lrkv, mechanism=Mechanism.MHA, r=0)
        assert cache_ratio(lrkv) == pytest.approx(want, rel=TOL_RATIO), H
        byte_ratio = Fraction(cache_bytes(CostQuery(lrkv, T=2048)),
                              cache_bytes(CostQuery(mha, T=2048)))
        assert byte_ratio == want, (H, byte_ratio)
    for preset in PRESETS.values():
        ratio = cache_ratio(config_for(preset, Mechanism.LRKV,
                                       rank=preset.table_rank))
        assert 0.45 <= ratio <= 0.53, (preset.name, ratio)
    table = config_for("128M", Mechanism.LRKV, rank=PRESETS["128M"].table_rank)
    assert round(cache_ratio(table), 3) == 0.526


def test_criterion_04_rank_ablation_cache_percentages():
    base = AttentionConfig(mechanism=Mechanism.LRKV, d=768, H=6, d_h=128, r=64)
    rows = ablation_table(base, ranks=[8, 16, 32, 64, 128], T=2048)
    stated = [22.9, 29.2, 41.7, 66.7, 116.7]
    for row, want in zip(rows, stated):
        assert abs(row["cache_pct"] - want) <= 0.05, (row["r"], row["cache_pct"])


def test_criterion_05_kv_parameter_model_and_boundaries():
    lrkv = AttentionConfig(mechanism=Mechanism.LRKV, d=768, H=6, d_h=128, r=64)
    mha = AttentionConfig(mechanism=Mechanism.MHA, d=768, H=6, d_h=128)
    assert kv_param_count(lrkv) == 884_736
    assert kv_param_count(mha) == 1_179_648
    for H, d_h in ((4, 16), (6, 128), (12, 64)):
        d = H * d_h
        r0 = AttentionConfig(mechanism=Mechanism.LRKV, d=d, H=H, d_h=d_h, r=0)
        mqa = AttentionConfig(mechanism=Mechanism.MQA, d=d, H=H, d_h=d_h)
        assert kv_param_count(r0) == kv_param_count(mqa)
        gq = AttentionConfig(mechanism=Mechanism.GQA, d=d, H=H, d_h=d_h, G=H)
        full = AttentionConfig(mechanism=Mechanism.MHA, d=d, H=H, d_h=d_h)
        assert kv_param_count(gq) == kv_param_count(full)


def test_criterion_06_decode_overhead_and_instrumented_agreement(instrumented_step_flops):
    lrkv = AttentionConfig(mechanism=Mechanism.LRKV, d=768, H=6, d_h=128, r=64)
    mha = AttentionConfig(mechanism=Mechanism.MHA, d=768, H=6, d_h=128)
    T = 4096
    _, overhead = decode_flops(CostQuery(config=lrkv, T=T))
    assert abs(overhead - 0.50) / 0.50 <= 0.10, overhead
    for config, path in ((lrkv, "factored"), (mha, "explicit")):
        closed, _ = decode_flops(CostQuery(config=config, T=T))
        measured = instrumented_step_flops(config, T, path)
        assert measured == closed, (config.mechanism, measured, closed)


def test_criterion_07_projection_gradients_match_finite_differences():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=32, H=4, d_h=8, r=3)
    rows = gradcheck_rows(config, RngSpec(seed=11), instances=20)
    assert {row["path"] for row in rows} == {"k", "v"}
    assert "w_shared" in {row["target"] for row in rows}
    assert max(row["instance"] for row in rows) == 19
    for row in rows:
        assert row["rel_err"] <= TOL_GRAD, row


def _random_orthogonal(gen, n):
    Q, R = np.linalg.qr(gen.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def test_criterion_08_head_diversity_suite():
    start = time.perf_counter()
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=96, H=6, d_h=16, r=5)
    w = init_weights(config, RngSpec(seed=8))
    wq, wk = bilinear_forms(w, config)
    sim, _ = cosine(gram(wq, wk))
    base_unc = spectrum(sim)
    base_cen = spectrum(center_gram(sim))

    # coupled per-head rotations leave every reported quantity fixed
    gen = np.random.default_rng(88)
    for _ in range(20):
        Rs = [_random_orthogonal(gen, config.d_h) for _ in range(config.H)]
        rsim, _ = cosine(gram(np.stack([q @ R for q, R in zip(wq, Rs)]),
                              np.stack([k @ R for k, R in zip(wk, Rs)])))
        assert np.abs(rsim - sim).max() <= TOL_GAUGE
        runc = spectrum(rsim)
        rcen = spectrum(center_gram(rsim))
        assert abs(runc["effective_rank_abs"] - base_unc["effective_rank_abs"]) \
            <= TOL_GAUGE
        assert abs(rcen["effective_rank_abs"] - base_cen["effective_rank_abs"]) \
            <= TOL_GAUGE

    # double centering: idempotent, rows and columns sum to zero
    centered = center_gram(sim)
    again = center_gram(centered)
    assert np.abs(again - centered).max() <= TOL_CENTER
    assert np.abs(centered.sum(axis=0)).max() <= TOL_CENTER
    assert np.abs(centered.sum(axis=1)).max() <= TOL_CENTER

    # effective-rank fixtures on known eigenvalue profiles
    def eff(diag):
        return spectrum(np.diag(np.asarray(diag, dtype=np.float64)))["effective_rank_abs"]

    assert abs(eff([0.25] * 4) - 4.0) <= 1e-9
    assert abs(eff([1.0, 0.0, 0.0, 0.0]) - 1.0) <= 1e-9
    assert abs(eff([0.5, 0.25, 0.25]) - 2.8284) <= 1e-3

    # truncated factorization beats random rank-r competitors
    gen = np.random.default_rng(888)
    for _ in range(3):
        W = gen.standard_normal((48, 16))
        r = 5
        U, B, e_opt = svd_truncate(W, r)
        for _ in range(1000):
            kind = gen.integers(3)
            if kind == 0:
                Uc = gen.standard_normal((48, r))
                Bc = gen.standard_normal((16, r))
            elif kind == 1:
                s = 1.0 + 0.1 * gen.standard_normal()
                Uc, Bc = U * s, B
            else:
                Uc = U + 1e-3 * gen.standard_normal(U.shape)
                Bc = B + 1e-3 * gen.standard_normal(B.shape)
            e_c = float(np.linalg.norm(W - Uc @ Bc.T))
            assert e_c >= e_opt - 1e-12

    # factor-space Gram inner products equal the materialized ones
    direct = np.empty((config.H, config.H))
    for i in range(config.H):
        for j in range(config.H):
            A_i = wq[i] @ wk[i].T
            A_j = wq[j] @ wk[j].T
            direct[i, j] = float(np.sum(A_i * A_j))
    raw = gram(wq, wk)
    denom = np.abs(direct).max()
    assert np.abs(raw - direct).max() / denom <= TOL_TRACE_REL

    assert time.perf_counter() - start < 30.0


def test_criterion_09_residual_init_calibration():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=256, H=4, d_h=64, r=12)
    for seed in range(20):
        w = init_weights(config, RngSpec(seed=seed))
        for us, bs, shared in ((w.uk, w.bk, w.wk_shared),
                               (w.uv, w.bv, w.wv_shared)):
            base = float(np.linalg.norm(shared))
            for h in range(config.H):
                ratio = float(np.linalg.norm(us[h] @ bs[h].T)) / base
                assert abs(ratio - 0.100) <= TOL_INIT, (seed, h, ratio)


def test_criterion_10_rank_interpolation_endpoints():
    # rank 0: the low-rank family lands exactly on the shared-KV mechanism
    cfg0 = AttentionConfig(mechanism=Mechanism.LRKV, d=80, H=5, d_h=16, r=0)
    w0 = init_weights(cfg0, RngSpec(seed=3))
    mqa_cfg = AttentionConfig(mechanism=Mechanism.MQA, d=80, H=5, d_h=16)
    mqa_w = WeightSet(wq=w0.wq, wk_shared=w0.wk_shared,
                      wv_shared=w0.wv_shared, config=mqa_cfg)
    X = np.random.default_rng(10).standard_normal((24, 80))
    assert np.array_equal(forward_attention(w0, cfg0, X),
                          forward_attention(mqa_w, mqa_cfg, X))

    # rank d_h: factored residuals around a shared base recover any
    # fully per-head weight set
    mha_cfg = AttentionConfig(mechanism=Mechanism.MHA, d=80, H=5, d_h=16)
    mha_w = init_weights(mha_cfg, RngSpec(seed=4))
    shared_k = sum(mha_w.wk) / mha_cfg.H
    shared_v = sum(mha_w.wv) / mha_cfg.H
    uk, bk, uv, bv = [], [], [], []
    for h in range(mha_cfg.H):
        U, B, err = svd_truncate(mha_w.wk[h] - shared_k, mha_cfg.d_h)
        assert err <= 1e-9
        uk.append(U)
        bk.append(B)
        U, B, err = svd_truncate(mha_w.wv[h] - shared_v, mha_cfg.d_h)
        assert err <= 1e-9
        uv.append(U)
        bv.append(B)
    full_cfg = replace(cfg0, r=16)
    full_w = WeightSet(wq=mha_w.wq, wk_shared=shared_k, wv_shared=shared_v,
                       uk=np.stack(uk), bk=np.stack(bk), uv=np.stack(uv), bv=np.stack(bv),
                       config=full_cfg)
    got = forward_attention(full_w, full_cfg, X)
    want = forward_attention(mha_w, mha_cfg, X)
    assert np.abs(got - want).max() <= TOL_ENDPOINT
