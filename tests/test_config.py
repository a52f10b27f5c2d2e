import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attnlab import (
    AttentionConfig,
    ConfigurationError,
    Mechanism,
    RngSpec,
    UnsupportedMechanismError,
    ablation_table,
    decode_factored,
    empty_cache,
    factorization_gap,
    gradcheck_rows,
    init_weights,
    magnitude_report,
    projection_backward,
)


def test_mechanism_parse_accepts_all_names():
    for m in Mechanism:
        assert Mechanism.parse(m.value) is m
        assert Mechanism.parse(m.value.upper()) is m
        assert Mechanism.parse(f"  {m.value} ") is m


def test_mechanism_parse_rejects_unknown():
    with pytest.raises(ConfigurationError):
        Mechanism.parse("flash")


def test_config_accepts_mechanism_as_string():
    c = AttentionConfig(mechanism="lrkv", d=64, H=4, d_h=16, r=4)
    assert c.mechanism is Mechanism.LRKV


def test_d_must_factor():
    with pytest.raises(ConfigurationError):
        AttentionConfig(mechanism=Mechanism.MHA, d=65, H=4, d_h=16)


@pytest.mark.parametrize("field", ["d", "H", "d_h", "n_layers"])
def test_core_dims_positive(field):
    kwargs = dict(mechanism=Mechanism.MHA, d=64, H=4, d_h=16, n_layers=2)
    kwargs[field] = 0
    if field in ("d", "H", "d_h"):
        # keep d = H * d_h failures from masking the positivity check
        kwargs = {**kwargs, "d": 0, "H": 1, "d_h": 1} if field == "d" else kwargs
    with pytest.raises(ConfigurationError):
        AttentionConfig(**kwargs)


def test_gqa_group_count_must_divide():
    with pytest.raises(ConfigurationError):
        AttentionConfig(mechanism=Mechanism.GQA, d=64, H=4, d_h=16, G=3)
    c = AttentionConfig(mechanism=Mechanism.GQA, d=64, H=4, d_h=16, G=2)
    assert c.G == 2


def test_lrkv_rank_bounds():
    with pytest.raises(ConfigurationError):
        AttentionConfig(mechanism=Mechanism.LRKV, d=64, H=4, d_h=16, r=-1)
    with pytest.raises(ConfigurationError):
        AttentionConfig(mechanism=Mechanism.LRKV, d=64, H=4, d_h=16, r=65)
    assert AttentionConfig(mechanism=Mechanism.LRKV, d=64, H=4, d_h=16, r=0).r == 0


def test_mla_latent_bounds():
    with pytest.raises(ConfigurationError):
        AttentionConfig(mechanism=Mechanism.MLA, d=64, H=4, d_h=16, d_c=0)
    with pytest.raises(ConfigurationError):
        AttentionConfig(mechanism=Mechanism.MLA, d=64, H=4, d_h=16, d_c=65)


def test_irrelevant_fields_are_validated():
    # an MHA config never reads r, d_c or G, yet junk there is still rejected
    mha = dict(mechanism=Mechanism.MHA, d=64, H=4, d_h=16)
    with pytest.raises(ConfigurationError, match=r"r must be in \[0, 64\], got -7"):
        AttentionConfig(**mha, r=-7)
    with pytest.raises(ConfigurationError, match="G must divide H: H=4, G=3"):
        AttentionConfig(**mha, G=3)
    with pytest.raises(ConfigurationError, match=r"d_c must be in \[1, 64\], got 0"):
        AttentionConfig(**mha, d_c=0)


def test_softmax_scale_default_and_override():
    c = AttentionConfig(mechanism=Mechanism.MHA, d=64, H=4, d_h=16)
    assert c.softmax_scale == pytest.approx(1.0 / math.sqrt(16))
    c2 = AttentionConfig(mechanism=Mechanism.MHA, d=64, H=4, d_h=16, softmax_scale=0.5)
    assert c2.softmax_scale == 0.5
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            AttentionConfig(mechanism=Mechanism.MHA, d=64, H=4, d_h=16,
                            softmax_scale=bad)


def test_config_is_frozen():
    c = AttentionConfig(mechanism=Mechanism.MHA, d=64, H=4, d_h=16)
    with pytest.raises(AttributeError):
        c.d = 128


def test_from_json_dict_requires_mechanism_and_rejects_extras():
    with pytest.raises(ConfigurationError):
        AttentionConfig.from_json_dict({"d": 64, "H": 4, "d_h": 16})
    with pytest.raises(ConfigurationError):
        AttentionConfig.from_json_dict(
            {"mechanism": "mha", "d": 64, "H": 4, "d_h": 16, "window": 8}
        )


@st.composite
def configs(draw):
    mechanism = draw(st.sampled_from(list(Mechanism)))
    H = draw(st.integers(1, 8))
    d_h = draw(st.integers(1, 32))
    kwargs = dict(mechanism=mechanism, d=H * d_h, H=H, d_h=d_h,
                  n_layers=draw(st.integers(1, 4)),
                  qk_norm=draw(st.booleans()))
    # every field is checked whatever the mechanism, so every one is drawn
    kwargs["r"] = draw(st.integers(0, H * d_h))
    kwargs["G"] = draw(st.sampled_from([g for g in range(1, H + 1) if H % g == 0]))
    kwargs["d_c"] = draw(st.integers(1, H * d_h))
    return AttentionConfig(**kwargs)


@given(configs())
def test_json_round_trip(config):
    again = AttentionConfig.from_json_dict(config.to_json_dict())
    assert again == config


def test_rng_spec_validation():
    assert RngSpec(seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ConfigurationError):
        RngSpec(seed=-1)
    with pytest.raises(ConfigurationError):
        RngSpec(seed=2**64)


@pytest.mark.parametrize("seed", [True, False])
def test_rng_spec_rejects_bool_seed(seed):
    """``True`` is an int to Python; as a seed it would silently mean 1."""
    with pytest.raises(ConfigurationError, match="seed"):
        RngSpec(seed=seed)


@pytest.mark.parametrize("field,value", [
    ("softmax_scale", "abc"),
    ("softmax_scale", [0.5]),
    ("softmax_scale", "0.5"),  # a number only in quotes
    ("softmax_scale", True),
    pytest.param("softmax_scale", 10**400, id="softmax_scale-int-past-float-range"),
    ("qk_norm", "yes"),
    ("qk_norm", 1),
])
def test_wrongly_typed_fields_raise_configuration_error(field, value):
    kwargs = dict(mechanism="mha", d=64, H=4, d_h=16)
    with pytest.raises(ConfigurationError, match=field):
        AttentionConfig(**kwargs, **{field: value})
    with pytest.raises(ConfigurationError, match=field):
        AttentionConfig.from_json_dict({**kwargs, field: value})


def test_from_json_dict_rejects_non_objects():
    for bad in (["mechanism"], "mechanism", 5):
        with pytest.raises(ConfigurationError):
            AttentionConfig.from_json_dict(bad)


@pytest.mark.parametrize("field,mechanism", [
    ("d", "mha"), ("H", "mha"), ("d_h", "mha"), ("n_layers", "mha"),
    ("r", "lrkv"), ("d_c", "mla"), ("G", "gqa"),
])
def test_bool_is_not_an_integer_field(field, mechanism):
    kwargs = dict(mechanism=mechanism, d=4, H=2, d_h=2, r=1, d_c=1, G=1)
    AttentionConfig(**kwargs)  # the same config with ints builds
    if field in ("d", "H", "d_h"):
        kwargs.update(d=1, H=1, d_h=1)  # d = H * d_h still holds with True
    kwargs[field] = True
    with pytest.raises(ConfigurationError, match=field):
        AttentionConfig(**kwargs)
    with pytest.raises(ConfigurationError, match=field):
        AttentionConfig.from_json_dict(kwargs)


GQA = AttentionConfig(mechanism=Mechanism.GQA, d=32, H=4, d_h=8, G=2)


# Each mechanism-only operation: the mechanisms it allows, and a call on GQA.
GUARDED = {
    "decode_factored": ("lrkv or mla", lambda w: decode_factored(
        empty_cache(GQA, 1), w, GQA, np.zeros(GQA.d))),
    "ablation_table": ("lrkv", lambda w: ablation_table(GQA, [1], T=4)),
    "magnitude_report": ("lrkv", lambda w: magnitude_report(w, GQA)),
    "factorization_gap": ("lrkv", lambda w: factorization_gap(w, GQA, w)),
    "gradcheck_rows": ("lrkv", lambda w: gradcheck_rows(GQA, RngSpec(seed=0))),
    "projection_backward": ("lrkv", lambda w: projection_backward(
        w, GQA, np.zeros((2, GQA.d)), np.zeros((GQA.H, 2, GQA.d_h)))),
}


@pytest.mark.parametrize("operation", GUARDED)
def test_mechanism_only_operations_name_themselves(operation):
    """One guard: the message names the operation, what it allows, and the
    mechanism it was given."""
    allowed, call = GUARDED[operation]
    with pytest.raises(UnsupportedMechanismError) as e:
        call(init_weights(GQA, RngSpec(seed=0)))
    assert str(e.value) == f"{operation} is defined for {allowed} only, got gqa"
