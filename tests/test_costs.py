import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attnlab import (
    MIB,
    AttentionConfig,
    ConfigurationError,
    CostQuery,
    Mechanism,
    RngSpec,
    UnsupportedMechanismError,
    ablation_table,
    cache_bytes,
    cache_ratio,
    decode_flops,
    decode_flops_breakdown,
    empty_cache,
    init_weights,
    kv_param_count,
    prefill,
)
from attnlab.cli import run_cli
from attnlab.costs import MLA_PATHS


def cfg(mechanism, *, d=48, H=4, d_h=12, **kw):
    return AttentionConfig(mechanism=mechanism, d=d, H=H, d_h=d_h, **kw)


def q(config, T, **kw):
    return CostQuery(config=config, T=T, **kw)


# ---------------------------------------------------------------- bytes


def test_cache_bytes_hand_computed():
    mqa = AttentionConfig(mechanism=Mechanism.MQA, d=48, H=4, d_h=12, n_layers=3)
    assert cache_bytes(q(mqa, T=10, batch=2, bytes_per_element=2)) == \
        2 * 3 * 2 * 10 * 12 * 2
    mla = AttentionConfig(mechanism=Mechanism.MLA, d=48, H=4, d_h=12, d_c=10)
    assert cache_bytes(q(mla, T=7, bytes_per_element=4, mla_latent_streams=1)) == \
        1 * 1 * 7 * 4 * 10
    assert cache_bytes(q(mla, T=7, bytes_per_element=4, mla_latent_streams=2)) == \
        2 * 1 * 7 * 4 * 10


def test_reference_scale_bytes():
    """The six-head scale point: known MiB and ratio values."""
    base = dict(d=768, H=6, d_h=128, n_layers=12)
    common = dict(T=2048, batch=1, bytes_per_element=2)
    mib = {
        Mechanism.MHA: 72.0,
        Mechanism.MQA: 12.0,
        Mechanism.GQA: 36.0,
        Mechanism.MLA: 12.0,
        Mechanism.LRKV: 48.0,
    }
    extras = {Mechanism.GQA: {"G": 3}, Mechanism.MLA: {"d_c": 128},
              Mechanism.LRKV: {"r": 64}}
    for mechanism, expect in mib.items():
        config = AttentionConfig(mechanism=mechanism, **base,
                                 **extras.get(mechanism, {}))
        assert cache_bytes(q(config, **common)) / MIB == expect, mechanism


def test_cache_ratio_closed_forms():
    assert cache_ratio(cfg(Mechanism.MHA)) == 1.0
    assert cache_ratio(cfg(Mechanism.MQA)) == 0.25
    assert cache_ratio(cfg(Mechanism.GQA, G=2)) == 0.5
    assert cache_ratio(cfg(Mechanism.MLA, d_c=12)) == \
        pytest.approx(2 * 12 / (2 * 4 * 12))
    assert cache_ratio(cfg(Mechanism.LRKV, r=6)) == pytest.approx(0.25 + 0.5)


def test_measured_equals_closed_form_across_random_configs():
    gen = np.random.default_rng(0)
    for _ in range(100):
        mechanism = Mechanism(gen.choice([m.value for m in Mechanism]))
        H = int(gen.integers(1, 7))
        d_h = int(gen.integers(1, 17))
        kw = {}
        if mechanism is Mechanism.LRKV:
            kw["r"] = int(gen.integers(0, d_h + 1))
        elif mechanism is Mechanism.GQA:
            divisors = [g for g in range(1, H + 1) if H % g == 0]
            kw["G"] = int(gen.choice(divisors))
        elif mechanism is Mechanism.MLA:
            kw["d_c"] = int(gen.integers(1, H * d_h + 1))
        config = AttentionConfig(mechanism=mechanism, d=H * d_h, H=H, d_h=d_h, **kw)
        cap = int(gen.integers(1, 24))
        bpe = int(gen.choice([1, 2, 4, 8]))
        cache = empty_cache(config, capacity=cap)
        # a DecodeCache stores one latent stream, hence streams=1 here
        query = q(config, T=cap, bytes_per_element=bpe, mla_latent_streams=1)
        assert cache.payload_elements() * bpe == cache_bytes(query)


@pytest.mark.parametrize("mechanism,kw", [
    (Mechanism.MHA, {}), (Mechanism.MQA, {}), (Mechanism.GQA, {"G": 2}),
    (Mechanism.MLA, {"d_c": 10}), (Mechanism.LRKV, {"r": 5}),
], ids=["mha", "mqa", "gqa", "mla", "lrkv"])
def test_payload_of_a_part_filled_cache_is_priced_at_capacity(mechanism, kw):
    """A cache holding fewer rows than its capacity still reports the bytes
    of a full one: what ``cache_bytes`` prices at T = capacity."""
    config = cfg(mechanism, **kw)
    w = init_weights(config, RngSpec(seed=0))
    X = np.random.default_rng(1).standard_normal((5, config.d))
    cache = prefill(w, config, X, capacity=13)
    assert {buf.shape[-2] for buf in cache.streams.values()} == {8}
    query = q(config, T=13, bytes_per_element=8, mla_latent_streams=1)
    assert cache.payload_nbytes() == cache_bytes(query)


@given(st.integers(1, 64), st.integers(1, 16))
def test_bytes_linear_in_tokens_and_batch(T, batch):
    config = cfg(Mechanism.LRKV, r=5)
    unit = cache_bytes(q(config, T=1, batch=1))
    assert cache_bytes(q(config, T=T, batch=batch)) == unit * T * batch


def test_bytes_monotone_in_rank_groups_latent():
    for r1, r2 in ((0, 1), (3, 7)):
        assert cache_bytes(q(cfg(Mechanism.LRKV, r=r1), T=5)) < \
            cache_bytes(q(cfg(Mechanism.LRKV, r=r2), T=5))
    assert cache_bytes(q(cfg(Mechanism.GQA, G=2), T=5)) < \
        cache_bytes(q(cfg(Mechanism.GQA, G=4), T=5))
    assert cache_bytes(q(cfg(Mechanism.MLA, d_c=4), T=5)) < \
        cache_bytes(q(cfg(Mechanism.MLA, d_c=9), T=5))


def test_zero_tokens_cost_nothing():
    config = cfg(Mechanism.LRKV, r=5)
    assert cache_bytes(q(config, T=0)) == 0
    flops, overhead = decode_flops(q(config, T=0))
    assert overhead == 0.0
    assert flops > 0  # the new token still gets projected


# ---------------------------------------------------------------- params


def test_kv_param_count_reference_values():
    lrkv = AttentionConfig(mechanism=Mechanism.LRKV, d=768, H=6, d_h=128, r=64)
    mha = AttentionConfig(mechanism=Mechanism.MHA, d=768, H=6, d_h=128)
    assert kv_param_count(lrkv) == 884_736
    assert kv_param_count(mha) == 1_179_648


def test_param_boundary_identities():
    mqa = cfg(Mechanism.MQA)
    assert kv_param_count(cfg(Mechanism.LRKV, r=0)) == kv_param_count(mqa)
    assert kv_param_count(cfg(Mechanism.GQA, G=4)) == kv_param_count(cfg(Mechanism.MHA))
    assert kv_param_count(cfg(Mechanism.GQA, G=1)) == kv_param_count(mqa)


def test_bytes_boundary_identities():
    for T in (1, 17):
        assert cache_bytes(q(cfg(Mechanism.LRKV, r=0), T=T)) == \
            cache_bytes(q(cfg(Mechanism.MQA), T=T))
        assert cache_bytes(q(cfg(Mechanism.GQA, G=4), T=T)) == \
            cache_bytes(q(cfg(Mechanism.MHA), T=T))


def test_flops_boundary_identity_rank_zero_is_mqa():
    for T in (0, 1, 33):
        lr = decode_flops_breakdown(q(cfg(Mechanism.LRKV, r=0), T=T))
        mq = decode_flops_breakdown(q(cfg(Mechanism.MQA), T=T))
        assert lr == mq


# ---------------------------------------------------------------- flops


def test_breakdown_sums_to_total():
    for mechanism, kw in ((Mechanism.MHA, {}), (Mechanism.MLA, {"d_c": 10}),
                          (Mechanism.LRKV, {"r": 5})):
        config = cfg(mechanism, **kw)
        parts = decode_flops_breakdown(q(config, T=20))
        total, _ = decode_flops(q(config, T=20))
        assert sum(parts.values()) == total


def test_mla_path_validation():
    with pytest.raises(ConfigurationError):
        decode_flops(q(cfg(Mechanism.MLA, d_c=10), T=4), mla_path="fused")


@pytest.mark.parametrize("mechanism,kw", [(Mechanism.MHA, {}), (Mechanism.MLA, {"d_c": 10}),
                                        (Mechanism.LRKV, {"r": 5})], ids=["mha", "mla", "lrkv"])
def test_qk_norm_configs_are_not_priced(mechanism, kw):
    """The forms price qk_norm off; a qk_norm config is refused, not priced
    as if its norms were free. Its cache bytes do not depend on the norms."""
    config = cfg(mechanism, qk_norm=True, **kw)
    for mla_path in MLA_PATHS:
        with pytest.raises(ConfigurationError, match="qk_norm"):
            decode_flops_breakdown(q(config, T=8), mla_path=mla_path)
    assert cache_bytes(q(config, T=8)) == cache_bytes(q(cfg(mechanism, **kw), T=8))
    if mechanism is Mechanism.LRKV:
        with pytest.raises(ConfigurationError, match="qk_norm"):
            ablation_table(config, [0, 2], T=8)


def test_lrkv_overhead_closed_form():
    config = AttentionConfig(mechanism=Mechanism.LRKV, d=768, H=6, d_h=128, r=64)
    _, overhead = decode_flops(q(config, T=4096))
    assert overhead == pytest.approx(64 / 128 + 64 / 4096, rel=1e-12)
    assert overhead == pytest.approx(0.515625)


def test_mla_reconstruct_overhead_is_latent_width():
    config = cfg(Mechanism.MLA, d_c=10)
    for T in (8, 256):
        _, overhead = decode_flops(q(config, T=T), mla_path="reconstruct")
        assert overhead == pytest.approx(config.d_c)


def test_t_dependence_classification():
    """Reconstruction scales with the prefix; factor lifts do not."""
    mla = cfg(Mechanism.MLA, d_c=10)
    lr = cfg(Mechanism.LRKV, r=5)
    a = {m: decode_flops_breakdown(m_q) for m, m_q in
         (("rec", q(mla, T=16)), ("fac", q(mla, T=16)), ("lrkv", q(lr, T=16)))}
    a["fac"] = decode_flops_breakdown(q(mla, T=16), mla_path="factored")
    b = {"rec": decode_flops_breakdown(q(mla, T=48)),
         "fac": decode_flops_breakdown(q(mla, T=48), mla_path="factored"),
         "lrkv": decode_flops_breakdown(q(lr, T=48))}
    assert b["rec"]["reconstruct"] == 3 * a["rec"]["reconstruct"]
    assert b["rec"]["scan"] == 3 * a["rec"]["scan"]
    for key in ("fac", "lrkv"):
        assert a[key]["lift"] == b[key]["lift"] > 0
        assert a[key]["reconstruct"] == 0
        assert b[key]["scan"] == 3 * a[key]["scan"]
    for parts in (*a.values(), *b.values()):
        assert parts["proj_new_token"] > 0


# ------------------------------------------------- instrumented agreement


@pytest.mark.parametrize("mechanism,kw,path,mla_path", [
    (Mechanism.MHA, {}, "explicit", "reconstruct"),
    (Mechanism.MQA, {}, "explicit", "reconstruct"),
    (Mechanism.GQA, {"G": 2}, "explicit", "reconstruct"),
    (Mechanism.MLA, {"d_c": 10}, "explicit", "reconstruct"),
    (Mechanism.MLA, {"d_c": 10}, "factored", "factored"),
    (Mechanism.LRKV, {"r": 5}, "factored", "reconstruct"),
    (Mechanism.LRKV, {"r": 0}, "factored", "reconstruct"),
])
def test_instrumented_count_agrees_with_closed_form(mechanism, kw, path, mla_path,
                                                   instrumented_step_flops):
    """Count every multiply/add the real decode step performs; compare."""
    config = cfg(mechanism, **kw)
    T = 64
    measured = instrumented_step_flops(config, T, path)
    closed, _ = decode_flops(q(config, T=T), mla_path=mla_path)
    assert measured == closed


@st.composite
def priced_steps(draw):
    """A config in the closed form's domain (qk_norm off) and a decode path
    it prices: lrkv's factored path, either mla path, grouped K/V's explicit
    one. Ranks run past d_h up to d, and latents up to d."""
    mechanism = draw(st.sampled_from(list(Mechanism)))
    H, d_h = draw(st.integers(1, 6)), draw(st.integers(1, 16))
    kw, path = {}, "explicit"
    if mechanism is Mechanism.LRKV:
        kw["r"], path = draw(st.integers(0, H * d_h)), "factored"
    elif mechanism is Mechanism.GQA:
        kw["G"] = draw(st.sampled_from([g for g in range(1, H + 1) if H % g == 0]))
    elif mechanism is Mechanism.MLA:
        kw["d_c"] = draw(st.integers(1, H * d_h))
        path = draw(st.sampled_from(["explicit", "factored"]))
    config = AttentionConfig(mechanism=mechanism, d=H * d_h, H=H, d_h=d_h, **kw)
    return config, path


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(step=priced_steps(), T=st.integers(1, 48))
def test_instrumented_count_equals_closed_form_on_any_config(step, T, instrumented_step_flops):
    config, path = step
    mla_path = "factored" if path == "factored" else "reconstruct"
    closed, _ = decode_flops(q(config, T=T), mla_path=mla_path)
    assert instrumented_step_flops(config, T, path) == closed


def _explicit_lrkv_flops(config, T):
    """The explicit lrkv step in closed form, the analog of mla's reconstruct
    path with d_c -> r: the breakdown's projections and softmax, each head's
    K and V rebuilt from its rank-r latents (4·H·T·r·d_h) and a full-width
    scan (4·H·T·d_h), with no lift."""
    parts = decode_flops_breakdown(q(config, T=T))
    H, d_h, r = config.H, config.d_h, config.r
    return parts["proj_new_token"] + parts["softmax"] + 4 * H * T * r * d_h + 4 * H * T * d_h


@pytest.mark.parametrize("kw,T", [({"r": 5}, 64), ({"r": 0}, 64), ({"r": 12}, 1),
                                  ({"d": 768, "H": 6, "d_h": 128, "r": 64}, 40)])
def test_explicit_lrkv_step_count_equals_its_closed_form(kw, T, instrumented_step_flops):
    config = cfg(Mechanism.LRKV, **kw)
    assert instrumented_step_flops(config, T, "explicit") == _explicit_lrkv_flops(config, T)


@st.composite
def lrkv_configs(draw):
    H, d_h = draw(st.integers(1, 6)), draw(st.integers(1, 16))
    return AttentionConfig(mechanism=Mechanism.LRKV, d=H * d_h, H=H, d_h=d_h,
                           r=draw(st.integers(0, H * d_h)))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=lrkv_configs(), T=st.integers(1, 48))
def test_explicit_lrkv_step_count_equals_its_closed_form_on_any_config(
        config, T, instrumented_step_flops):
    assert instrumented_step_flops(config, T, "explicit") == _explicit_lrkv_flops(config, T)


# ---------------------------------------------------------------- tables


def test_ablation_table_reference_percentages():
    base = AttentionConfig(mechanism=Mechanism.LRKV, d=768, H=6, d_h=128, r=64)
    rows = ablation_table(base, [8, 16, 32, 64, 128], T=2048)
    pct = [row["cache_pct"] for row in rows]
    for got, want in zip(pct, (22.917, 29.167, 41.667, 66.667, 116.667)):
        assert got == pytest.approx(want, abs=5e-3)
    ranks = [row["r"] for row in rows]
    assert ranks == [8, 16, 32, 64, 128]


def test_ablation_table_rows_are_self_consistent():
    base = cfg(Mechanism.LRKV, r=3)
    for row in ablation_table(base, [0, 2, 7], T=9):
        sub = AttentionConfig(mechanism=Mechanism.LRKV, d=48, H=4, d_h=12,
                              r=row["r"])
        assert row["cache_ratio"] == cache_ratio(sub)
        assert row["cache_pct"] == 100.0 * row["cache_ratio"]
        assert row["cache_bytes"] == cache_bytes(q(sub, T=9))
        assert row["kv_param_count"] == kv_param_count(sub)
        assert row["decode_flops"] == decode_flops(q(sub, T=9))[0]


def test_ablation_table_rejects_other_mechanisms():
    with pytest.raises(UnsupportedMechanismError):
        ablation_table(cfg(Mechanism.MHA), [1, 2], T=4)


def test_memory_ratio_vs_mha_is_byte_ratio(tmp_path):
    """``memory``'s ratio_vs_mha is the row's cache bytes over the full-cache
    baseline's under the same query."""
    config = cfg(Mechanism.LRKV, r=5, n_layers=3)
    path = tmp_path / "lrkv.json"
    path.write_text(json.dumps(config.to_json_dict()))
    out = tmp_path / "memory.csv"
    assert run_cli(["memory", "--config-json", str(path), "--tokens", "32", "--batch", "2",
                    "--out", str(out)]) == 0
    with open(out, newline="") as f:
        (row,) = csv.DictReader(f)
    nbytes = cache_bytes(q(config, T=32, batch=2))
    mha_bytes = cache_bytes(q(cfg(Mechanism.MHA, n_layers=3), T=32, batch=2))
    assert int(row["cache_bytes"]) == nbytes
    assert row["ratio_vs_mha"] == f"{nbytes / mha_bytes:.3f}" == "0.667"
    assert int(row["kv_param_count"]) == kv_param_count(config)


# ---------------------------------------------------------------- query


def test_cost_query_validation():
    config = cfg(Mechanism.MQA)
    with pytest.raises(ConfigurationError):
        CostQuery(config=config, T=-1)
    with pytest.raises(ConfigurationError):
        CostQuery(config=config, T=4, batch=0)
    with pytest.raises(ConfigurationError):
        CostQuery(config=config, T=4, bytes_per_element=3)
    with pytest.raises(ConfigurationError):
        CostQuery(config=config, T=4, mla_latent_streams=3)
    assert CostQuery(config=config, T=0).T == 0
